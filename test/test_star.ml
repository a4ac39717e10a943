module Relation = Jp_relation.Relation
module Tuples = Jp_relation.Tuples
module Star = Joinproj.Star

let brute rels =
  Tuples.to_list (Jp_wcoj.Star.project rels)

let star_threshold_check rels =
  let expect = brute rels in
  List.iter
    (fun (d1, d2) ->
      List.iter
        (fun strategy ->
          let got = Star.project ~strategy ~thresholds:(d1, d2) rels in
          Alcotest.(check (list (list int)))
            (Printf.sprintf "star d1=%d d2=%d" d1 d2)
            expect (Tuples.to_list got))
        [ Star.Matrix; Star.Combinatorial ])
    [ (1, 1); (1, 2); (2, 1); (2, 2); (3, 3); (50, 50) ]

let test_star3_uniform () =
  star_threshold_check
    [|
      Gen.random_relation ~seed:61 ~nx:12 ~ny:10 ~edges:50 ();
      Gen.random_relation ~seed:62 ~nx:11 ~ny:10 ~edges:45 ();
      Gen.random_relation ~seed:63 ~nx:10 ~ny:10 ~edges:40 ();
    |]

let test_star3_skewed () =
  star_threshold_check
    [|
      Gen.skewed_relation ~seed:64 ~nx:14 ~ny:12 ~edges:80 ();
      Gen.skewed_relation ~seed:65 ~nx:13 ~ny:12 ~edges:70 ();
      Gen.skewed_relation ~seed:66 ~nx:12 ~ny:12 ~edges:60 ();
    |]

let test_star4 () =
  star_threshold_check
    [|
      Gen.skewed_relation ~seed:67 ~nx:8 ~ny:8 ~edges:30 ();
      Gen.skewed_relation ~seed:68 ~nx:8 ~ny:8 ~edges:28 ();
      Gen.skewed_relation ~seed:69 ~nx:8 ~ny:8 ~edges:26 ();
      Gen.skewed_relation ~seed:70 ~nx:8 ~ny:8 ~edges:24 ();
    |]

let test_star2_matches_two_path () =
  let r = Gen.skewed_relation ~seed:71 ~nx:20 ~ny:15 ~edges:100 () in
  let s = Gen.skewed_relation ~seed:72 ~nx:18 ~ny:15 ~edges:90 () in
  let star = Star.project ~thresholds:(2, 2) [| r; s |] in
  let two = Jp_wcoj.Expand.project ~r ~s () in
  Alcotest.(check (list (list int)))
    "k=2 star = 2-path"
    (List.map (fun (x, z) -> [ x; z ]) (Jp_relation.Pairs.to_list two))
    (Tuples.to_list star)

let test_star_self_join () =
  let r = Gen.skewed_relation ~seed:73 ~nx:12 ~ny:12 ~edges:70 () in
  star_threshold_check [| r; r; r |]

let test_star_default_thresholds () =
  let rels =
    [|
      Gen.skewed_relation ~seed:74 ~nx:15 ~ny:12 ~edges:90 ();
      Gen.skewed_relation ~seed:75 ~nx:14 ~ny:12 ~edges:85 ();
      Gen.skewed_relation ~seed:76 ~nx:13 ~ny:12 ~edges:80 ();
    |]
  in
  let d1, d2 = Star.choose_thresholds rels in
  Alcotest.(check bool) "thresholds sane" true (d1 >= 1 && d2 >= 1);
  Alcotest.(check (list (list int)))
    "default thresholds correct" (brute rels)
    (Tuples.to_list (Star.project rels))

(* Mixed y domains, as produced by the query engine's mixed-orientation
   stars (some atoms transposed): relations whose dst counts differ.
   Regression: the heavy residue used to index adjacency past the smaller
   relations' dst space. *)
let test_star_mixed_dst_counts () =
  star_threshold_check
    [|
      Gen.skewed_relation ~seed:81 ~nx:12 ~ny:7 ~edges:60 ();
      Relation.transpose (Gen.skewed_relation ~seed:82 ~nx:15 ~ny:12 ~edges:70 ());
      Gen.skewed_relation ~seed:83 ~nx:11 ~ny:9 ~edges:55 ();
    |]

let test_star_arity_guard () =
  let r = Gen.random_relation ~seed:80 ~nx:5 ~ny:5 ~edges:10 () in
  Alcotest.check_raises "arity" (Invalid_argument "Star.project: arity must be >= 2")
    (fun () -> ignore (Star.project [| r |]))

let suite =
  [
    Alcotest.test_case "star3 uniform" `Quick test_star3_uniform;
    Alcotest.test_case "star3 skewed" `Quick test_star3_skewed;
    Alcotest.test_case "star4" `Quick test_star4;
    Alcotest.test_case "star k=2 = two-path" `Quick test_star2_matches_two_path;
    Alcotest.test_case "star self join" `Quick test_star_self_join;
    Alcotest.test_case "star default thresholds" `Quick test_star_default_thresholds;
    Alcotest.test_case "star mixed dst counts" `Quick test_star_mixed_dst_counts;
    Alcotest.test_case "star arity guard" `Quick test_star_arity_guard;
  ]
