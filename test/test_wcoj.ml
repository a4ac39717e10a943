module Relation = Jp_relation.Relation
module Leapfrog = Jp_wcoj.Leapfrog
module Expand = Jp_wcoj.Expand
module Star = Jp_wcoj.Star
module Tuples = Jp_relation.Tuples
module Row_acc = Jp_wcoj.Row_acc
module Bitset = Jp_util.Bitset

(* regression: k=1 used to loop forever (matches overshot k after emit) *)
let test_leapfrog_k1_terminates () =
  Alcotest.(check (list int)) "k=1 emits all" [ 1; 2; 9 ]
    (Array.to_list (Leapfrog.intersect [| [| 1; 2; 9 |] |]))

let test_leapfrog_basic () =
  let got =
    Leapfrog.intersect [| [| 1; 3; 5; 7 |]; [| 2; 3; 5; 8 |]; [| 0; 3; 5; 9 |] |]
  in
  Alcotest.(check (list int)) "three-way" [ 3; 5 ] (Array.to_list got);
  Alcotest.(check (list int)) "single" [ 1; 2 ]
    (Array.to_list (Leapfrog.intersect [| [| 1; 2 |] |]));
  Alcotest.(check (list int)) "empty input" []
    (Array.to_list (Leapfrog.intersect [| [| 1; 2 |]; [||] |]))

let prop_leapfrog =
  QCheck.Test.make ~name:"leapfrog = fold intersect" ~count:300
    QCheck.(list_of_size (Gen.int_range 1 4) (small_list (int_bound 40)))
    (fun lists ->
      let arrays =
        List.map
          (fun l ->
            let a = Array.of_list (List.sort_uniq compare l) in
            a)
          lists
      in
      let expect =
        match arrays with
        | [] -> [||]
        | first :: rest -> List.fold_left Jp_util.Sorted.intersect first rest
      in
      Leapfrog.intersect (Array.of_list arrays) = expect)

let test_expand_matches_brute () =
  let r = Gen.random_relation ~seed:11 ~nx:30 ~ny:20 ~edges:120 () in
  let s = Gen.random_relation ~seed:12 ~nx:25 ~ny:20 ~edges:100 () in
  let got = Gen.pairs_to_list (Expand.project ~r ~s ()) in
  Alcotest.(check (list (pair int int))) "project = brute force"
    (Gen.brute_two_path ~r ~s) got

let test_expand_parallel_equal () =
  let r = Gen.random_relation ~seed:13 ~nx:60 ~ny:40 ~edges:400 () in
  let s = Gen.random_relation ~seed:14 ~nx:50 ~ny:40 ~edges:350 () in
  let seq = Expand.project ~r ~s () in
  let par = Expand.project ~domains:4 ~r ~s () in
  Alcotest.(check bool) "parallel = sequential" true (Jp_relation.Pairs.equal seq par)

let test_expand_filters () =
  let r = Relation.of_edges [| (0, 0); (0, 1); (1, 1) |] in
  let s = Relation.of_edges [| (5, 0); (6, 1) |] in
  let only_y0 = Expand.project ~keep_y:(fun y -> y = 0) ~r ~s () in
  Alcotest.(check (list (pair int int))) "keep_y" [ (0, 5) ]
    (Gen.pairs_to_list only_y0);
  let xs_only = Expand.project ~xs:[| 1 |] ~r ~s () in
  Alcotest.(check (list (pair int int))) "xs" [ (1, 6) ] (Gen.pairs_to_list xs_only)

let test_expand_counts () =
  let r = Relation.of_edges [| (0, 0); (0, 1); (0, 2) |] in
  let s = Relation.of_edges [| (9, 0); (9, 1); (8, 2) |] in
  let c = Expand.project_counts ~r ~s () in
  Alcotest.(check int) "witnesses (0,9)" 2 (Jp_relation.Counted_pairs.get c 0 9);
  Alcotest.(check int) "witnesses (0,8)" 1 (Jp_relation.Counted_pairs.get c 0 8)

let prop_expand_counts =
  QCheck.Test.make ~name:"expand counts = brute counts" ~count:60
    QCheck.(pair small_int small_int)
    (fun (s1, s2) ->
      let r = Gen.random_relation ~seed:(s1 + 1) ~nx:12 ~ny:10 ~edges:40 () in
      let s = Gen.random_relation ~seed:(s2 + 100) ~nx:11 ~ny:10 ~edges:35 () in
      Gen.counted_to_list (Expand.project_counts ~r ~s ())
      = Gen.brute_two_path_counts ~r ~s)

(* Sort-merge reference for a counted row: (id, witnesses) entries
   summed per id, ascending. *)
let sum_by_id entries =
  List.rev
    (List.fold_left
       (fun acc (c, k) ->
         match acc with
         | (c', k') :: rest when c' = c -> (c, k + k') :: rest
         | _ -> (c, k) :: acc)
       [] (List.sort compare entries))

(* One row through a boolean and a counted accumulator over ids
   [0, n): [lists] scanned, then a product row [bits] whose columns map
   to the even ids (boolean: [finish_mapped], or [finish] when there is
   none; counted: weight [l mod 3] per column [l]).  [true] iff both
   match a sort-dedup of the same ids. *)
let row_acc_agrees ~bool_acc ~count_acc ~n lists bits =
  let map = Array.init ((n + 1) / 2) (fun l -> 2 * l) in
  let b = Bitset.create (Array.length map) in
  List.iter (Bitset.set b) bits;
  let bits = List.sort_uniq compare bits in
  let ids = List.concat lists in
  Row_acc.start bool_acc;
  List.iter (fun l -> Row_acc.scan bool_acc (Array.of_list l)) lists;
  let distinct = Row_acc.distinct bool_acc in
  let got =
    if bits = [] then Row_acc.finish bool_acc
    else Row_acc.finish_mapped bool_acc b map
  in
  let ks = Array.mapi (fun l _ -> if Bitset.mem b l then l mod 3 else 0) map in
  Row_acc.start count_acc;
  List.iter (fun l -> Row_acc.scan_counted count_acc (Array.of_list l)) lists;
  Row_acc.scan_weighted count_acc map ks;
  let zs, cs = Row_acc.finish_counted count_acc in
  distinct = List.length (List.sort_uniq compare ids)
  && Array.to_list got
     = List.sort_uniq compare (ids @ List.map (fun l -> map.(l)) bits)
  && List.combine (Array.to_list zs) (Array.to_list cs)
     = sum_by_id
         (List.map (fun c -> (c, 1)) ids
         @ List.filter_map
             (fun l -> if l mod 3 > 0 then Some (map.(l), l mod 3) else None)
             bits)

(* Rows of 0 to ~400 ids over widths whose spill points are 32, 32 and
   66 ids, so rows fall on both sides of it; one pair of accumulators
   serves every row of a case. *)
let prop_row_acc =
  QCheck.Test.make ~name:"row accumulator = sort-dedup" ~count:200
    QCheck.(
      make
        Gen.(
          oneofl [ 40; 240; 4000 ] >>= fun n ->
          list_size (int_range 1 6)
            (pair
               (list_size (int_range 0 5)
                  (list_size (int_range 0 80) (int_bound (n - 1))))
               (list_size (int_range 0 40) (int_bound (((n + 1) / 2) - 1))))
          >|= fun rows -> (n, rows)))
    (fun (n, rows) ->
      let bool_acc = Row_acc.create n and count_acc = Row_acc.create_counted n in
      List.for_all
        (fun (lists, bits) -> row_acc_agrees ~bool_acc ~count_acc ~n lists bits)
        rows)

(* Width 240 spills at 32 distinct ids: rows of 31, 32 and 33 distinct
   ids, each id presented twice, in both accumulators reused across the
   rows; a spilled row left unfinished does not leak into the next. *)
let test_row_acc_spill_point () =
  let n = 240 in
  let bool_acc = Row_acc.create n and count_acc = Row_acc.create_counted n in
  List.iter
    (fun k ->
      let ids = List.init k (fun i -> (i * 7) mod n) in
      Alcotest.(check bool)
        (Printf.sprintf "%d distinct ids" k)
        true
        (row_acc_agrees ~bool_acc ~count_acc ~n [ ids; List.rev ids ] []);
      Alcotest.(check bool)
        (Printf.sprintf "%d distinct ids and a product row" k)
        true
        (row_acc_agrees ~bool_acc ~count_acc ~n [ ids ] [ 0; 5; k / 2 ]))
    [ 31; 32; 33; 0; 120 ];
  Row_acc.start bool_acc;
  Row_acc.scan bool_acc (Array.init 100 Fun.id);
  Alcotest.(check int) "spilled row, distinct" 100 (Row_acc.distinct bool_acc);
  Row_acc.start bool_acc;
  Row_acc.scan bool_acc [| 7; 3; 7 |];
  Alcotest.(check (list int)) "unfinished row dropped" [ 3; 7 ]
    (Array.to_list (Row_acc.finish bool_acc));
  Row_acc.start bool_acc;
  Row_acc.scan bool_acc (Array.init 100 Fun.id);
  Row_acc.start bool_acc;
  Row_acc.scan bool_acc (Array.init 100 (fun i -> 100 + i));
  Alcotest.(check (list int)) "unfinished spilled row dropped"
    (List.init 100 (fun i -> 100 + i))
    (Array.to_list (Row_acc.finish bool_acc))

let brute_star rels =
  (* cross product per y, global dedup *)
  let k = Array.length rels in
  let acc = Hashtbl.create 97 in
  let ny = Array.fold_left (fun m r -> max m (Relation.dst_count r)) 0 rels in
  for y = 0 to ny - 1 do
    let lists =
      Array.map
        (fun r -> if y < Relation.dst_count r then Relation.adj_dst r y else [||])
        rels
    in
    if Array.for_all (fun l -> Array.length l > 0) lists then begin
      let rec fill i tuple =
        if i = k then Hashtbl.replace acc (List.rev tuple) ()
        else Array.iter (fun c -> fill (i + 1) (c :: tuple)) lists.(i)
      in
      fill 0 []
    end
  done;
  List.sort compare (Hashtbl.fold (fun t () l -> t :: l) acc [])

let test_star_project () =
  let rels =
    [|
      Gen.random_relation ~seed:21 ~nx:10 ~ny:8 ~edges:30 ();
      Gen.random_relation ~seed:22 ~nx:9 ~ny:8 ~edges:25 ();
      Gen.random_relation ~seed:23 ~nx:8 ~ny:8 ~edges:20 ();
    |]
  in
  let t = Star.project rels in
  Alcotest.(check (list (list int))) "star = brute" (brute_star rels) (Tuples.to_list t)

let test_star_k2_matches_expand () =
  let r = Gen.random_relation ~seed:24 ~nx:15 ~ny:12 ~edges:60 () in
  let s = Gen.random_relation ~seed:25 ~nx:14 ~ny:12 ~edges:55 () in
  let via_star = Tuples.to_list (Star.project [| r; s |]) in
  let via_expand =
    List.map (fun (x, z) -> [ x; z ]) (Gen.pairs_to_list (Expand.project ~r ~s ()))
  in
  Alcotest.(check (list (list int))) "k=2 agreement" via_expand via_star

let test_star_restrict () =
  let r = Relation.of_edges [| (0, 0); (1, 0) |] in
  let s = Relation.of_edges [| (5, 0); (6, 0) |] in
  let t = Star.project ~restrict:(0, fun c _ -> c = 1) [| r; s |] in
  Alcotest.(check (list (list int))) "restricted" [ [ 1; 5 ]; [ 1; 6 ] ]
    (Tuples.to_list t)

let test_star_join_size () =
  let r = Relation.of_edges [| (0, 0); (1, 0); (2, 1) |] in
  let s = Relation.of_edges [| (0, 0); (1, 1); (2, 1) |] in
  Alcotest.(check int) "join size" 4 (Star.join_size [| r; s |]);
  Alcotest.(check int) "matches relation helper"
    (Relation.join_size_on_dst [ r; s ])
    (Star.join_size [| r; s |])

let suite =
  [
    Alcotest.test_case "leapfrog k=1 regression" `Quick test_leapfrog_k1_terminates;
    Alcotest.test_case "leapfrog basic" `Quick test_leapfrog_basic;
    QCheck_alcotest.to_alcotest prop_leapfrog;
    Alcotest.test_case "expand = brute" `Quick test_expand_matches_brute;
    Alcotest.test_case "expand parallel" `Quick test_expand_parallel_equal;
    Alcotest.test_case "expand filters" `Quick test_expand_filters;
    Alcotest.test_case "expand counts" `Quick test_expand_counts;
    QCheck_alcotest.to_alcotest prop_expand_counts;
    QCheck_alcotest.to_alcotest prop_row_acc;
    Alcotest.test_case "row accumulator spill point" `Quick test_row_acc_spill_point;
    Alcotest.test_case "star project" `Quick test_star_project;
    Alcotest.test_case "star k=2" `Quick test_star_k2_matches_expand;
    Alcotest.test_case "star restrict" `Quick test_star_restrict;
    Alcotest.test_case "star join size" `Quick test_star_join_size;
  ]
