module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Size_aware = Jp_ssj.Size_aware
module Size_aware_pp = Jp_ssj.Size_aware_pp
module Mm_ssj = Jp_ssj.Mm_ssj
module Ordered = Jp_ssj.Ordered
module Overlap_tree = Jp_ssj.Overlap_tree

(* Brute force: all unordered pairs with overlap >= c. *)
let brute ~c r =
  let n = Relation.src_count r in
  let acc = ref [] in
  for j = n - 1 downto 0 do
    for i = j - 1 downto 0 do
      if Jp_ssj.Common.overlap r i j >= c then acc := (i, j) :: !acc
    done
  done;
  List.sort compare !acc

let family seed =
  (* random set family with duplication-friendly skew *)
  Gen.skewed_relation ~seed ~nx:30 ~ny:25 ~edges:250 ()

let check_algo name algo =
  List.iter
    (fun c ->
      List.iter
        (fun seed ->
          let r = family seed in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "%s c=%d seed=%d" name c seed)
            (brute ~c r)
            (Pairs.to_list (algo ~c r)))
        [ 81; 82; 83 ])
    [ 1; 2; 3; 5 ]

let test_sizeaware () = check_algo "sizeaware" (fun ~c r -> Size_aware.join ~c r)

let test_sizeaware_forced_boundaries () =
  let r = family 84 in
  List.iter
    (fun boundary ->
      List.iter
        (fun c ->
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "boundary=%d c=%d" boundary c)
            (brute ~c r)
            (Pairs.to_list (Size_aware.join ~boundary ~c r)))
        [ 1; 2; 4 ])
    [ 1; 2; 5; 100 ]

let test_sizeaware_pp_all_ablations () =
  let r = family 85 in
  List.iter
    (fun config ->
      List.iter
        (fun c ->
          let options = Size_aware_pp.ablation config in
          Alcotest.(check (list (pair int int)))
            (Printf.sprintf "c=%d" c)
            (brute ~c r)
            (Pairs.to_list (Size_aware_pp.join ~options ~c r)))
        [ 1; 2; 3 ])
    [ `No_op; `Light; `Heavy; `Prefix ]

let test_sizeaware_pp_forced_boundaries () =
  let r = family 86 in
  List.iter
    (fun boundary ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "pp boundary=%d" boundary)
        (brute ~c:2 r)
        (Pairs.to_list (Size_aware_pp.join ~boundary ~c:2 r)))
    [ 1; 3; 8; 1000 ]

let test_mm_ssj () = check_algo "mmjoin" (fun ~c r -> Mm_ssj.join ~c r)

let test_overlap_tree_direct () =
  let r = family 87 in
  List.iter
    (fun c ->
      Alcotest.(check (list (pair int int)))
        (Printf.sprintf "overlap tree c=%d" c)
        (brute ~c r)
        (Pairs.to_list (Overlap_tree.similar_pairs ~c r)))
    [ 1; 2; 4 ]

let test_overlap_tree_members () =
  let r = Relation.of_sets [| [| 0; 1; 2 |]; [| 0; 1; 3 |]; [| 0; 1; 2; 3 |] |] in
  (* restrict to sets 0 and 1 only *)
  let p = Overlap_tree.similar_pairs ~members:[| 0; 1 |] ~c:2 r in
  Alcotest.(check (list (pair int int))) "members restricted" [ (0, 1) ] (Pairs.to_list p)

let prop_ssj_agreement =
  QCheck.Test.make ~name:"all SSJ algorithms agree" ~count:25
    QCheck.(pair small_int (int_range 1 4))
    (fun (seed, c) ->
      let r = Gen.random_relation ~seed:(seed + 2000) ~nx:15 ~ny:12 ~edges:80 () in
      let reference = Pairs.to_list (Mm_ssj.join ~c r) in
      Pairs.to_list (Size_aware.join ~c r) = reference
      && Pairs.to_list (Size_aware_pp.join ~c r) = reference)

let test_get_size_boundary_sane () =
  let r = family 88 in
  List.iter
    (fun c ->
      let b = Size_aware.get_size_boundary r ~c in
      Alcotest.(check bool) "boundary >= 1" true (b >= 1))
    [ 1; 2; 6 ]

let test_ordered_via_counts () =
  let r = family 89 in
  let c = 2 in
  let ordered = Ordered.via_counts ~c r in
  (* contents match brute force *)
  let got_pairs = List.sort compare (Array.to_list (Array.map (fun (i, j, _) -> (i, j)) ordered)) in
  Alcotest.(check (list (pair int int))) "ordered pairs" (brute ~c r) got_pairs;
  (* overlaps correct and non-increasing *)
  Array.iter
    (fun (i, j, k) ->
      Alcotest.(check int) "overlap value" (Jp_ssj.Common.overlap r i j) k)
    ordered;
  let ok = ref true in
  for i = 1 to Array.length ordered - 1 do
    let _, _, k1 = ordered.(i - 1) and _, _, k2 = ordered.(i) in
    if k1 < k2 then ok := false
  done;
  Alcotest.(check bool) "non-increasing" true !ok

let test_ordered_via_pairs_matches () =
  let r = family 90 in
  let c = 2 in
  let a = Ordered.via_counts ~c r in
  let b = Ordered.via_pairs r ~c (Size_aware.join ~c r) in
  Alcotest.(check bool) "same ordered output" true (a = b)

let test_top_k () =
  let r = family 91 in
  let c = 1 in
  let full = Ordered.via_counts ~c r in
  List.iter
    (fun k ->
      let got = Ordered.top_k ~k ~c r in
      let expect = Array.sub full 0 (min k (Array.length full)) in
      Alcotest.(check bool) (Printf.sprintf "top %d = prefix" k) true (got = expect))
    [ 0; 1; 5; 17; 100; 100_000 ]

let test_c_subsets () =
  let collected = ref [] in
  Jp_ssj.Common.iter_c_subsets [| 1; 2; 3; 4 |] ~c:2 (fun s -> collected := s :: !collected);
  Alcotest.(check int) "C(4,2)" 6 (List.length !collected);
  Alcotest.(check bool) "contains [1;4]" true (List.mem [ 1; 4 ] !collected);
  let none = ref 0 in
  Jp_ssj.Common.iter_c_subsets [| 1; 2 |] ~c:3 (fun _ -> incr none);
  Alcotest.(check int) "c > n yields none" 0 !none

let test_binom_capped () =
  Alcotest.(check int) "C(5,2)" 10 (Jp_ssj.Common.binom_capped 5 2 ~cap:1000);
  Alcotest.(check int) "capped" 50 (Jp_ssj.Common.binom_capped 100 50 ~cap:50);
  Alcotest.(check int) "k>n" 0 (Jp_ssj.Common.binom_capped 3 5 ~cap:10)

let suite =
  [
    Alcotest.test_case "sizeaware = brute" `Quick test_sizeaware;
    Alcotest.test_case "sizeaware boundaries" `Quick test_sizeaware_forced_boundaries;
    Alcotest.test_case "sizeaware++ ablations" `Quick test_sizeaware_pp_all_ablations;
    Alcotest.test_case "sizeaware++ boundaries" `Quick test_sizeaware_pp_forced_boundaries;
    Alcotest.test_case "mm ssj = brute" `Quick test_mm_ssj;
    Alcotest.test_case "overlap tree" `Quick test_overlap_tree_direct;
    Alcotest.test_case "overlap tree members" `Quick test_overlap_tree_members;
    QCheck_alcotest.to_alcotest prop_ssj_agreement;
    Alcotest.test_case "size boundary sane" `Quick test_get_size_boundary_sane;
    Alcotest.test_case "ordered via counts" `Quick test_ordered_via_counts;
    Alcotest.test_case "ordered via pairs" `Quick test_ordered_via_pairs_matches;
    Alcotest.test_case "top-k ordered" `Quick test_top_k;
    Alcotest.test_case "c-subsets" `Quick test_c_subsets;
    Alcotest.test_case "binom capped" `Quick test_binom_capped;
  ]
