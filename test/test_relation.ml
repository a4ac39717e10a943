module Relation = Jp_relation.Relation
module Stats = Jp_relation.Stats
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Tuples = Jp_relation.Tuples

let test_build_dedup () =
  let r = Relation.of_edges [| (0, 1); (0, 1); (2, 0); (0, 2); (2, 0) |] in
  Alcotest.(check int) "size dedups" 3 (Relation.size r);
  Alcotest.(check (list int)) "adj_src sorted" [ 1; 2 ]
    (Array.to_list (Relation.adj_src r 0));
  Alcotest.(check (list int)) "adj_dst sorted" [ 2 ]
    (Array.to_list (Relation.adj_dst r 0));
  Alcotest.(check int) "deg_dst" 1 (Relation.deg_dst r 1);
  Alcotest.(check bool) "mem" true (Relation.mem r 2 0);
  Alcotest.(check bool) "not mem" false (Relation.mem r 1 0)

let test_of_sets_roundtrip () =
  let sets = [| [| 3; 1; 3 |]; [||]; [| 0 |] |] in
  let r = Relation.of_sets sets in
  Alcotest.(check int) "size" 3 (Relation.size r);
  Alcotest.(check (list int)) "set 0" [ 1; 3 ] (Array.to_list (Relation.adj_src r 0));
  Alcotest.(check int) "empty set" 0 (Relation.deg_src r 1)

let test_transpose () =
  let r = Relation.of_edges [| (0, 5); (1, 5); (1, 2) |] in
  let t = Relation.transpose r in
  Alcotest.(check int) "src<->dst" (Relation.src_count r) (Relation.dst_count t);
  Alcotest.(check (list int)) "adj swapped" [ 0; 1 ] (Array.to_list (Relation.adj_src t 5));
  Alcotest.(check bool) "double transpose" true (Relation.equal r (Relation.transpose t))

let test_filters () =
  let r = Relation.of_edges [| (0, 0); (0, 1); (1, 0); (1, 1); (2, 2) |] in
  let f = Relation.filter r (fun x y -> x <> y) in
  Alcotest.(check int) "filter" 2 (Relation.size f);
  let rs = Relation.restrict_src r (fun x -> x = 1) in
  Alcotest.(check int) "restrict_src" 2 (Relation.size rs);
  let sj = Relation.semijoin_dst r (fun y -> y = 0) in
  Alcotest.(check int) "semijoin_dst" 2 (Relation.size sj);
  Alcotest.(check (list int)) "semijoin adj" [ 0 ] (Array.to_list (Relation.adj_src sj 0))

let test_join_size_active () =
  let r = Relation.of_edges [| (0, 0); (1, 0); (2, 1) |] in
  let s = Relation.of_edges [| (0, 0); (1, 1); (2, 1) |] in
  (* y=0: 2*1, y=1: 1*2 *)
  Alcotest.(check int) "join size" 4 (Relation.join_size_on_dst [ r; s ]);
  let act = Relation.active_dst [ r; s ] in
  Alcotest.(check (list bool)) "active" [ true; true ] (Array.to_list act)

let test_of_flat_errors () =
  Alcotest.check_raises "odd" (Invalid_argument "Relation.of_flat: odd length")
    (fun () -> ignore (Relation.of_flat [| 1 |]));
  Alcotest.check_raises "negative" (Invalid_argument "Relation.of_flat: negative id")
    (fun () -> ignore (Relation.of_flat [| 0; -1 |]))

let prop_roundtrip =
  QCheck.Test.make ~name:"of_edges/to_edges roundtrip (sorted dedup)" ~count:200
    QCheck.(small_list (pair (int_bound 20) (int_bound 20)))
    (fun edges ->
      let r = Relation.of_edges (Array.of_list edges) in
      let expect = List.sort_uniq compare edges in
      Array.to_list (Relation.to_edges r) = expect
      && Relation.size r = List.length expect)

let test_fingerprint () =
  let edges = [| (0, 1); (2, 0); (0, 2) |] in
  let r1 = Relation.of_edges edges in
  let r2 = Relation.of_edges [| (0, 2); (0, 1); (2, 0); (2, 0) |] in
  Alcotest.(check bool) "structurally equal relations share a fp" true
    (Relation.fingerprint r1 = Relation.fingerprint r2);
  Alcotest.(check int) "memoized (second call identical)"
    (Relation.fingerprint r1) (Relation.fingerprint r1);
  let r3 = Relation.of_edges [| (0, 1); (2, 0) |] in
  Alcotest.(check bool) "different content differs" true
    (Relation.fingerprint r1 <> Relation.fingerprint r3);
  let t = Relation.transpose r1 in
  Alcotest.(check bool) "transpose differs" true
    (Relation.fingerprint r1 <> Relation.fingerprint t);
  (* padding dimensions changes the fingerprint: the derived artifacts
     (matrix shapes, partitions) depend on the declared universe *)
  let padded = Relation.of_edges ~src_count:10 ~dst_count:10 edges in
  Alcotest.(check bool) "dimensions are part of the identity" true
    (Relation.fingerprint r1 <> Relation.fingerprint padded);
  Alcotest.(check bool) "never the unset sentinel" true
    (Relation.fingerprint r1 <> 0)

let prop_fingerprint_respects_equality =
  QCheck.Test.make ~name:"equal relations fingerprint equally" ~count:300
    QCheck.(
      pair
        (small_list (pair (int_bound 5) (int_bound 5)))
        (small_list (pair (int_bound 5) (int_bound 5))))
    (fun (p1, p2) ->
      let build p = Relation.of_edges ~src_count:6 ~dst_count:6 (Array.of_list p) in
      let r1 = build p1 and r2 = build p2 in
      (not (Relation.equal r1 r2))
      || Relation.fingerprint r1 = Relation.fingerprint r2)

let test_stats () =
  (* degrees: value 0 -> 3, value 1 -> 1, value 2 -> 0, value 3 -> 1 *)
  let s = Stats.of_degrees [| 3; 1; 0; 1 |] in
  Alcotest.(check int) "active" 3 (Stats.active_count s);
  Alcotest.(check int) "max" 3 (Stats.max_degree s);
  Alcotest.(check int) "count_le 1" 2 (Stats.count_le s 1);
  Alcotest.(check int) "count_le 0" 0 (Stats.count_le s 0);
  Alcotest.(check int) "count_gt 1" 1 (Stats.count_gt s 1);
  Alcotest.(check int) "sum_le 1" 2 (Stats.sum_le s 1);
  Alcotest.(check int) "sum_le 3" 5 (Stats.sum_le s 3);
  Alcotest.(check int) "sum_sq_le 3" 11 (Stats.sum_sq_le s 3);
  Alcotest.(check int) "nth" 1 (Stats.nth_smallest_degree s 0)

let test_stats_weights () =
  let s = Stats.of_degrees ~weights:[| 10; 20; 30; 40 |] [| 2; 1; 0; 5 |] in
  Alcotest.(check int) "weight_le 1" 20 (Stats.weight_le s 1);
  Alcotest.(check int) "weight_le 2" 30 (Stats.weight_le s 2);
  Alcotest.(check int) "weight_le 5" 70 (Stats.weight_le s 5);
  Alcotest.(check (list int)) "values_le" [ 1; 0 ] (Array.to_list (Stats.values_le s 2));
  Alcotest.check_raises "with_weights length"
    (Invalid_argument "Stats.with_weights: weights length mismatch") (fun () ->
      ignore (Stats.with_weights s [| 1; 2 |]))

(* A degree array from one of four regimes (small degrees; mostly zeros;
   long runs of one tied degree; degrees in the thousands), a weight per
   value and a probe threshold up to one past the maximum degree. *)
let stats_case =
  let open QCheck.Gen in
  let arr len d = map Array.of_list (list_size len d) in
  let degrees =
    oneof
      [
        arr (int_bound 30) (int_bound 10);
        arr (int_bound 200) (frequency [ (8, return 0); (1, int_range 1 50) ]);
        ( int_range 1 5 >>= fun tie ->
          arr (int_bound 300) (frequency [ (6, return tie); (1, int_bound 8) ]) );
        arr (int_bound 100) (int_range 0 5000);
      ]
  in
  let case =
    degrees >>= fun deg ->
    let max_d = Array.fold_left max 0 deg in
    triple (return deg)
      (array_size (return (Array.length deg)) (int_bound 1000))
      (int_bound (max_d + 1))
  in
  QCheck.make ~print:QCheck.Print.(triple (array int) (array int) int) case

let prop_stats_model =
  QCheck.Test.make ~name:"stats agree with direct scans" ~count:300 stats_case
    (fun (deg, w, d) ->
      let s = Stats.of_degrees ~weights:w deg in
      let active = List.filter (fun v -> deg.(v) > 0) (List.init (Array.length deg) Fun.id) in
      let le = List.filter (fun v -> deg.(v) <= d) active in
      let sum f l = List.fold_left (fun acc v -> acc + f v) 0 l in
      let sorted_degs = List.sort compare (List.map (fun v -> deg.(v)) active) in
      Stats.active_count s = List.length active
      && Stats.max_degree s = List.fold_left max 0 sorted_degs
      && Stats.count_le s d = List.length le
      && Stats.count_gt s d = List.length active - List.length le
      && Stats.sum_le s d = sum (fun v -> deg.(v)) le
      && Stats.sum_sq_le s d = sum (fun v -> deg.(v) * deg.(v)) le
      && Stats.weight_le s d = sum (fun v -> w.(v)) le
      && List.sort compare (Array.to_list (Stats.values_le s d)) = le
      && List.init (List.length active) (Stats.nth_smallest_degree s) = sorted_degs)

(* The optimizer's y indexes share one ordering: [with_weights] must answer
   every probe at every threshold exactly like a fresh weighted build. *)
let prop_stats_shared_ordering =
  QCheck.Test.make ~name:"stats with_weights answers like a fresh build" ~count:200
    stats_case (fun (deg, w, _) ->
      let fresh = Stats.of_degrees ~weights:w deg in
      let shared = Stats.with_weights (Stats.of_degrees deg) w in
      let probes t d =
        ( Stats.count_le t d,
          Stats.sum_le t d,
          Stats.sum_sq_le t d,
          Stats.weight_le t d,
          Stats.values_le t d )
      in
      List.for_all
        (fun d -> probes fresh d = probes shared d)
        (List.init (Stats.max_degree fresh + 2) Fun.id))

let test_pairs () =
  let p = Pairs.of_rows [| [| 1; 3 |]; [||]; [| 0 |] |] in
  Alcotest.(check int) "count" 3 (Pairs.count p);
  Alcotest.(check bool) "mem" true (Pairs.mem p 0 3);
  Alcotest.(check bool) "not mem" false (Pairs.mem p 1 1);
  Alcotest.(check (list (pair int int))) "to_list" [ (0, 1); (0, 3); (2, 0) ]
    (Pairs.to_list p);
  let q = Pairs.of_rows [| [| 2 |]; [| 5 |] |] in
  let u = Pairs.union p q in
  Alcotest.(check int) "union count" 5 (Pairs.count u);
  Alcotest.check_raises "unsorted rejected"
    (Invalid_argument "Pairs.of_rows: row not strictly increasing") (fun () ->
      ignore (Pairs.of_rows [| [| 2; 1 |] |]))

let test_counted_pairs () =
  let c = Counted_pairs.of_rows [| ([| 1; 4 |], [| 2; 1 |]); ([| 0 |], [| 5 |]) |] in
  Alcotest.(check int) "count" 3 (Counted_pairs.count c);
  Alcotest.(check int) "witnesses" 8 (Counted_pairs.total_witnesses c);
  Alcotest.(check int) "get" 2 (Counted_pairs.get c 0 1);
  Alcotest.(check int) "get absent" 0 (Counted_pairs.get c 0 2);
  let f = Counted_pairs.filter_ge c 2 in
  Alcotest.(check int) "filter_ge" 2 (Counted_pairs.count f);
  let ordered = Counted_pairs.sorted_desc c in
  Alcotest.(check (list (triple int int int))) "sorted desc"
    [ (1, 0, 5); (0, 1, 2); (0, 4, 1) ]
    (Array.to_list ordered);
  Alcotest.(check (list (pair int int))) "to_pairs" [ (0, 1); (0, 4); (1, 0) ]
    (Jp_relation.Pairs.to_list (Counted_pairs.to_pairs c))

let test_tuples_packed () =
  Alcotest.(check bool) "packable" true (Tuples.packable ~dims:[| 100; 100; 100 |]);
  let b = Tuples.create_builder ~arity:3 ~dims:[| 100; 100; 100 |] in
  Tuples.add b [| 1; 2; 3 |];
  Tuples.add b [| 1; 2; 3 |];
  Tuples.add b [| 99; 0; 50 |];
  let t = Tuples.build b in
  Alcotest.(check int) "count" 2 (Tuples.count t);
  Alcotest.(check bool) "mem" true (Tuples.mem t [| 1; 2; 3 |]);
  Alcotest.(check bool) "not mem" false (Tuples.mem t [| 1; 2; 4 |]);
  Alcotest.(check (list (list int))) "to_list"
    [ [ 1; 2; 3 ]; [ 99; 0; 50 ] ]
    (Tuples.to_list t)

let test_tuples_hashed () =
  let huge = 1 lsl 40 in
  Alcotest.(check bool) "not packable" false (Tuples.packable ~dims:[| huge; huge |]);
  let b = Tuples.create_builder ~arity:2 ~dims:[| huge; huge |] in
  Tuples.add b [| 12345678901; 1 |];
  Tuples.add b [| 12345678901; 1 |];
  Tuples.add b [| 2; 2 |];
  let t = Tuples.build b in
  Alcotest.(check int) "count" 2 (Tuples.count t);
  Alcotest.(check bool) "mem" true (Tuples.mem t [| 2; 2 |])

let prop_tuples_dedup =
  QCheck.Test.make ~name:"tuples dedup like a set" ~count:200
    QCheck.(small_list (pair (int_bound 7) (int_bound 7)))
    (fun pairs ->
      let b = Tuples.create_builder ~arity:2 ~dims:[| 8; 8 |] in
      List.iter (fun (x, y) -> Tuples.add b [| x; y |]) pairs;
      let t = Tuples.build b in
      Tuples.count t = List.length (List.sort_uniq compare pairs))

let suite =
  [
    Alcotest.test_case "build dedup" `Quick test_build_dedup;
    Alcotest.test_case "of_sets" `Quick test_of_sets_roundtrip;
    Alcotest.test_case "transpose" `Quick test_transpose;
    Alcotest.test_case "filters" `Quick test_filters;
    Alcotest.test_case "join size / active" `Quick test_join_size_active;
    Alcotest.test_case "of_flat errors" `Quick test_of_flat_errors;
    QCheck_alcotest.to_alcotest prop_roundtrip;
    Alcotest.test_case "fingerprint" `Quick test_fingerprint;
    QCheck_alcotest.to_alcotest prop_fingerprint_respects_equality;
    Alcotest.test_case "stats" `Quick test_stats;
    Alcotest.test_case "stats weights" `Quick test_stats_weights;
    QCheck_alcotest.to_alcotest prop_stats_model;
    QCheck_alcotest.to_alcotest prop_stats_shared_ordering;
    Alcotest.test_case "pairs" `Quick test_pairs;
    Alcotest.test_case "counted pairs" `Quick test_counted_pairs;
    Alcotest.test_case "tuples packed" `Quick test_tuples_packed;
    Alcotest.test_case "tuples hashed" `Quick test_tuples_hashed;
    QCheck_alcotest.to_alcotest prop_tuples_dedup;
  ]
