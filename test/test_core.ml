module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Two_path = Joinproj.Two_path
module Optimizer = Joinproj.Optimizer
module Partition = Joinproj.Partition
module Estimator = Joinproj.Estimator

(* A deterministic machine model so optimizer decisions don't depend on
   the noisy calibration micro-benchmarks. *)
let fixed_machine =
  {
    Jp_matrix.Cost.ts = 1e-9;
    tm = 2e-8;
    ti = 6e-9;
    count_word = 1.5e-9;
    bool_word = 2e-9;
    cores = 4;
  }

let () = Jp_matrix.Cost.set_machine fixed_machine

let check_pairs name expected actual =
  Alcotest.(check (list (pair int int))) name expected actual

let test_partition_classification () =
  (* y=0 has degree 3 in both relations; y=1 degree 1. *)
  let r = Relation.of_edges [| (0, 0); (1, 0); (2, 0); (3, 1) |] in
  let s = Relation.of_edges [| (0, 0); (1, 0); (2, 0); (3, 1) |] in
  let p = Partition.make ~r ~s ~d1:1 ~d2:1 () in
  Alcotest.(check bool) "y=0 heavy" false (Partition.is_light_y p 0);
  Alcotest.(check bool) "y=1 light" true (Partition.is_light_y p 1);
  (* x degrees are all 1 <= d2, so no heavy endpoints despite heavy y *)
  Alcotest.(check int) "no heavy x" 0 (Array.length p.heavy_x);
  let p2 = Partition.make ~r ~s ~d1:3 ~d2:3 () in
  Alcotest.(check int) "all light" 0 (Array.length p2.heavy_y)

let test_partition_prunes_zero_rows () =
  (* x=0 is heavy by degree but only adjacent to light y's. *)
  let r =
    Relation.of_edges [| (0, 1); (0, 2); (0, 3); (1, 0); (2, 0); (3, 0); (4, 0) |]
  in
  let s =
    Relation.of_edges [| (9, 0); (8, 0); (7, 0); (6, 0); (5, 1); (5, 2); (5, 3) |]
  in
  let p = Partition.make ~r ~s ~d1:2 ~d2:2 () in
  Alcotest.(check (list int)) "heavy y" [ 0 ] (Array.to_list p.heavy_y);
  (* x=0 has degree 3 > 2 but no heavy y neighbour: pruned; same for z=5,
     whose neighbours y=1,2,3 are all light. *)
  Alcotest.(check (list int)) "heavy x pruned" [] (Array.to_list p.heavy_x);
  Alcotest.(check (list int)) "heavy z pruned" [] (Array.to_list p.heavy_z);
  Alcotest.check_raises "bad thresholds"
    (Invalid_argument "Partition.make: thresholds must be >= 1") (fun () ->
      ignore (Partition.make ~r ~s ~d1:0 ~d2:1 ()))

let forced_plan d1 d2 =
  {
    Optimizer.decision = Optimizer.Partitioned { d1; d2 };
    est_out = 1;
    join_size = 1;
    est_seconds = 0.0;
  }

let exhaustive_threshold_check ?(domains = 1) ~r ~s () =
  (* Algorithm 1 must be correct for EVERY threshold choice, matrix or
     combinatorial heavy strategy; optimality is the optimizer's problem. *)
  let expect = Gen.brute_two_path ~r ~s in
  List.iter
    (fun (d1, d2) ->
      List.iter
        (fun strategy ->
          let got =
            Two_path.project ~domains ~strategy ~plan:(forced_plan d1 d2) ~r ~s
              ()
          in
          let label = Printf.sprintf "d1=%d d2=%d domains=%d" d1 d2 domains in
          check_pairs label expect (Gen.pairs_to_list got))
        [ Two_path.Matrix; Two_path.Combinatorial ])
    [ (1, 1); (1, 3); (2, 2); (3, 1); (5, 5); (100, 100) ]

let test_two_path_all_thresholds_uniform () =
  let r = Gen.random_relation ~seed:31 ~nx:25 ~ny:18 ~edges:130 () in
  let s = Gen.random_relation ~seed:32 ~nx:22 ~ny:18 ~edges:110 () in
  exhaustive_threshold_check ~r ~s ()

let test_two_path_all_thresholds_skewed () =
  let r = Gen.skewed_relation ~seed:33 ~nx:30 ~ny:25 ~edges:200 () in
  let s = Gen.skewed_relation ~seed:34 ~nx:28 ~ny:25 ~edges:180 () in
  exhaustive_threshold_check ~r ~s ()

let test_two_path_self_join () =
  let r = Gen.skewed_relation ~seed:35 ~nx:30 ~ny:30 ~edges:250 () in
  exhaustive_threshold_check ~r ~s:r ()

(* A dense instance for the merge's row accumulator.  dom(z) = 240, so
   a row spills to the bitset at 32 distinct ids.  S has 20 dense y
   (60-wide windows of z, every z in five of them), 40 two-z sparse y
   and three y of exactly 31, 32 and 33 z.  R has light rows of 2 ids
   (x < 20), rows over three dense y (product-only once those are
   heavy), rows over two dense y and a y no other x uses (mixed: light
   and product), and rows straddling the spill point.  At d1 = d2 = 1
   the rows are 23 light-only, 23 product-only and 20 mixed; 44 of the
   66 rows reach the spill point, 22 do not. *)
let spill_instance () =
  let nz = 240 in
  let s = ref [] and r = ref [] in
  for k = 0 to 19 do
    for d = 0 to 59 do
      s := ((12 * k + d) mod nz, k) :: !s
    done
  done;
  for j = 0 to 39 do
    s := ((j * 11) mod nz, 20 + j) :: (((j * 11) + 5) mod nz, 20 + j) :: !s
  done;
  List.iteri
    (fun i m ->
      for d = 0 to m - 1 do
        s := (((37 * i) + d) mod nz, 60 + i) :: !s
      done)
    [ 31; 32; 33 ];
  for x = 0 to 19 do
    r := (x, 20 + x) :: !r
  done;
  for x = 20 to 39 do
    let k = x - 20 in
    r := (x, k) :: (x, (k + 7) mod 20) :: (x, (k + 13) mod 20) :: !r
  done;
  for x = 40 to 59 do
    let k = x - 40 in
    r := (x, k) :: (x, (k + 3) mod 20) :: (x, 40 + k) :: !r
  done;
  for i = 0 to 2 do
    r := (60 + i, 60 + i) :: (63 + i, 60 + i) :: (63 + i, 20 + i) :: !r
  done;
  (Relation.of_edges (Array.of_list !r), Relation.of_edges (Array.of_list !s))

let test_two_path_spill_rows () =
  let r, s = spill_instance () in
  Alcotest.(check int) "dom(z)" 240 (Relation.src_count s);
  let sizes =
    List.init (Relation.src_count r) (fun x ->
        List.length (List.filter (fun (a, _) -> a = x) (Gen.brute_two_path ~r ~s)))
  in
  Alcotest.(check bool) "rows on both sides of the spill point" true
    (List.exists (fun n -> n >= 32) sizes
    && List.exists (fun n -> n > 0 && n < 32) sizes);
  exhaustive_threshold_check ~r ~s ();
  exhaustive_threshold_check ~domains:2 ~r ~s ()

let test_two_path_planned () =
  let r = Gen.skewed_relation ~seed:36 ~nx:50 ~ny:40 ~edges:600 () in
  let s = Gen.skewed_relation ~seed:37 ~nx:45 ~ny:40 ~edges:550 () in
  let got = Two_path.project ~r ~s () in
  check_pairs "planned result" (Gen.brute_two_path ~r ~s) (Gen.pairs_to_list got)

let test_two_path_parallel () =
  let r = Gen.skewed_relation ~seed:38 ~nx:60 ~ny:50 ~edges:800 () in
  let s = Gen.skewed_relation ~seed:39 ~nx:55 ~ny:50 ~edges:700 () in
  let plan = forced_plan 2 3 in
  let seq = Two_path.project ~plan ~r ~s () in
  let par = Two_path.project ~domains:4 ~plan ~r ~s () in
  Alcotest.(check bool) "parallel = sequential" true (Pairs.equal seq par)

let prop_two_path_random =
  QCheck.Test.make ~name:"MMJoin = brute force on random instances" ~count:40
    QCheck.(triple small_int (int_range 1 6) (int_range 1 6))
    (fun (seed, d1, d2) ->
      let r = Gen.random_relation ~seed:(seed + 500) ~nx:15 ~ny:12 ~edges:70 () in
      let s = Gen.random_relation ~seed:(seed + 900) ~nx:14 ~ny:12 ~edges:60 () in
      let got = Two_path.project ~plan:(forced_plan d1 d2) ~r ~s () in
      Gen.pairs_to_list got = Gen.brute_two_path ~r ~s)

let counts_threshold_check ~r ~s =
  let expect = Gen.brute_two_path_counts ~r ~s in
  List.iter
    (fun d1 ->
      let got =
        Two_path.project_counts ~plan:(forced_plan d1 1) ~r ~s ()
      in
      Alcotest.(check (list (pair (pair int int) int)))
        (Printf.sprintf "counts d1=%d" d1)
        expect (Gen.counted_to_list got))
    [ 1; 2; 3; 10; 1000 ]

let test_counts_all_thresholds () =
  let r = Gen.skewed_relation ~seed:41 ~nx:25 ~ny:20 ~edges:160 () in
  let s = Gen.skewed_relation ~seed:42 ~nx:24 ~ny:20 ~edges:150 () in
  counts_threshold_check ~r ~s

let test_counts_spill_rows () =
  let r, s = spill_instance () in
  counts_threshold_check ~r ~s

let test_counts_cap_fallback () =
  let r = Gen.skewed_relation ~seed:43 ~nx:20 ~ny:15 ~edges:100 () in
  let s = Gen.skewed_relation ~seed:44 ~nx:19 ~ny:15 ~edges:90 () in
  let got =
    Two_path.project_counts ~matrix_cell_cap:1 ~plan:(forced_plan 2 1) ~r ~s ()
  in
  Alcotest.(check (list (pair (pair int int) int)))
    "tiny cap falls back to combinatorial heavy part"
    (Gen.brute_two_path_counts ~r ~s)
    (Gen.counted_to_list got)

let test_counts_planned () =
  let r = Gen.skewed_relation ~seed:45 ~nx:40 ~ny:30 ~edges:500 () in
  let got = Two_path.project_counts ~r ~s:r () in
  Alcotest.(check (list (pair (pair int int) int)))
    "planned counts" (Gen.brute_two_path_counts ~r ~s:r) (Gen.counted_to_list got)

let test_estimator_bounds () =
  let r = Gen.random_relation ~seed:46 ~nx:20 ~ny:15 ~edges:100 () in
  let s = Gen.random_relation ~seed:47 ~nx:18 ~ny:15 ~edges:90 () in
  let lower, upper = Estimator.bounds ~r ~s in
  let est = Estimator.estimate ~r ~s in
  let truth = List.length (Gen.brute_two_path ~r ~s) in
  Alcotest.(check bool) "lower <= upper" true (lower <= upper);
  Alcotest.(check bool) "estimate within bounds" true (lower <= est && est <= upper);
  Alcotest.(check bool) "truth within bounds" true (lower <= truth && truth <= upper)

let test_estimator_sampled () =
  let r = Gen.skewed_relation ~seed:49 ~nx:40 ~ny:30 ~edges:400 () in
  let truth = List.length (Gen.brute_two_path ~r ~s:r) in
  let lower, upper = Estimator.bounds ~r ~s:r in
  (* full-domain sample must be exact (modulo duplicate draws, so compare
     with a generous sample) *)
  let est = Estimator.sampled ~sample:10_000 ~r ~s:r () in
  Alcotest.(check bool) "sampled within bounds" true (lower <= est && est <= upper);
  let ratio = float_of_int (max est truth) /. float_of_int (max 1 (min est truth)) in
  Alcotest.(check bool) "sampled within 2x of truth" true (ratio < 2.0);
  (* determinism *)
  Alcotest.(check int) "deterministic" est (Estimator.sampled ~sample:10_000 ~r ~s:r ());
  (* Pinned on the spill instance, whose 66 x values 64 draws repeat and
     whose rows straddle the spill point: the value the parent commit's
     stamp-only count gave, strictly inside the bounds (not a clamp). *)
  let r, s = spill_instance () in
  let lower, upper = Estimator.bounds ~r ~s in
  let est = Estimator.sampled ~seed:7 ~r ~s () in
  Alcotest.(check int) "sampled pinned, seed 7" 6231 est;
  Alcotest.(check bool) "pin is not a clamp" true (lower < est && est < upper)

(* Algorithm 3 on the six presets at scale 0.2 under [fixed_machine]:
   decision, est_out, join size and the bit pattern of est_seconds, for
   plan and plan_counts, with the 20·N shortcut on and off ("/wf0":
   [~wcoj_factor:0], so the sparse presets run the descent too).  The
   degree indexes and the estimator may change only in ways that leave
   every one of these bit-identical. *)
let pinned_plans =
  Jp_workload.Presets.
    [
      (Dblp, "plan", "wcoj", 22300, 165777, 0x1.14792b317e749p-10);
      (Dblp, "counts", "wcoj", 22300, 165777, 0x1.14792b317e749p-10);
      (Dblp, "plan/wf0", "wcoj", 22300, 165777, 0x1.14792b317e749p-10);
      (Dblp, "counts/wf0", "mm(d1=18,d2=28347)", 22300, 165777, 0x1.13e4801a47716p-10);
      (Roadnet, "plan", "wcoj", 4489, 10076, 0x1.a557cf051c85bp-14);
      (Roadnet, "counts", "wcoj", 4489, 10076, 0x1.a557cf051c85bp-14);
      (Roadnet, "plan/wf0", "wcoj", 4489, 10076, 0x1.a557cf051c85bp-14);
      (Roadnet, "counts/wf0", "wcoj", 4489, 10076, 0x1.a557cf051c85bp-14);
      (Jokes, "plan", "mm(d1=21,d2=7)", 9840, 152014, 0x1.133c31aef8458p-11);
      (Jokes, "counts", "mm(d1=33,d2=3652)", 9840, 152014, 0x1.8629a117dfd9p-12);
      (Jokes, "plan/wf0", "mm(d1=21,d2=7)", 9840, 152014, 0x1.133c31aef8458p-11);
      (Jokes, "counts/wf0", "mm(d1=33,d2=3652)", 9840, 152014, 0x1.8629a117dfd9p-12);
      (Words, "plan", "mm(d1=31,d2=2)", 25460, 144411, 0x1.7ae42c5aa234ap-12);
      (Words, "counts", "mm(d1=42,d2=2143)", 25460, 144411, 0x1.9f9aca933d089p-13);
      (Words, "plan/wf0", "mm(d1=31,d2=2)", 25460, 144411, 0x1.7ae42c5aa234ap-12);
      (Words, "counts/wf0", "mm(d1=42,d2=2143)", 25460, 144411, 0x1.9f9aca933d089p-13);
      (Protein, "plan", "mm(d1=1,d2=1)", 6400, 256184, 0x1.5363082fb7c2fp-11);
      (Protein, "counts", "mm(d1=1,d2=6340)", 6400, 256184, 0x1.421184710c7b2p-11);
      (Protein, "plan/wf0", "mm(d1=1,d2=1)", 6400, 256184, 0x1.5363082fb7c2fp-11);
      (Protein, "counts/wf0", "mm(d1=1,d2=6340)", 6400, 256184, 0x1.421184710c7b2p-11);
      (Image, "plan", "mm(d1=1,d2=1)", 7380, 253510, 0x1.6f32a20cce36cp-11);
      (Image, "counts", "mm(d1=27,d2=6108)", 7380, 253510, 0x1.5aa4d6d15f29ep-11);
      (Image, "plan/wf0", "mm(d1=1,d2=1)", 7380, 253510, 0x1.6f32a20cce36cp-11);
      (Image, "counts/wf0", "mm(d1=27,d2=6108)", 7380, 253510, 0x1.5aa4d6d15f29ep-11);
    ]

let test_plans_pinned () =
  let module Presets = Jp_workload.Presets in
  let machine = fixed_machine in
  List.iter
    (fun name ->
      let r = Presets.load ~scale:0.2 name in
      let prep = Optimizer.prepare ~r ~s:r in
      Alcotest.(check int)
        (Presets.to_string name ^ " prepared est_out = Estimator.estimate")
        (Estimator.estimate ~r ~s:r) (Optimizer.estimated_out prep);
      let plans =
        [
          ("plan", Optimizer.plan ~machine ~r ~s:r ());
          ("counts", Optimizer.plan_counts ~machine ~r ~s:r ());
          ("plan/wf0", Optimizer.plan_prepared ~machine ~wcoj_factor:0 prep ());
          ("counts/wf0", Optimizer.plan_counts_prepared ~machine ~wcoj_factor:0 prep ());
        ]
      in
      List.iter
        (fun (variant, (p : Optimizer.plan)) ->
          let label = Printf.sprintf "%s %s" (Presets.to_string name) variant in
          let _, _, decision, est_out, join_size, est_seconds =
            List.find (fun (n, v, _, _, _, _) -> n = name && v = variant) pinned_plans
          in
          Alcotest.(check string) (label ^ " decision") decision
            (Optimizer.decision_to_string p.decision);
          Alcotest.(check int) (label ^ " est_out") est_out p.est_out;
          Alcotest.(check int) (label ^ " join_size") join_size p.join_size;
          Alcotest.(check string) (label ^ " est_seconds")
            (Printf.sprintf "%h" est_seconds)
            (Printf.sprintf "%h" p.est_seconds))
        plans)
    Presets.all

let test_optimizer_wcoj_shortcircuit () =
  (* A nearly functional relation: join size ~ N, far below 20N. *)
  let edges = Array.init 200 (fun i -> (i, i mod 50)) in
  let r = Relation.of_edges edges in
  let plan = Optimizer.plan ~machine:fixed_machine ~r ~s:r () in
  (match plan.decision with
  | Optimizer.Wcoj -> ()
  | Optimizer.Partitioned _ -> Alcotest.fail "expected wcoj shortcircuit");
  Alcotest.(check bool) "explain mentions wcoj" true
    (String.length (Optimizer.explain plan) > 0)

let test_optimizer_picks_partition_on_dense () =
  (* A dense block: every x shares every y; join size n^3-ish >> 20N. *)
  let n = 40 in
  let edges =
    Array.init (n * n) (fun i -> (i / n, i mod n))
  in
  let r = Relation.of_edges edges in
  let plan = Optimizer.plan ~machine:fixed_machine ~r ~s:r () in
  (match plan.decision with
  | Optimizer.Partitioned { d1; d2 } ->
    Alcotest.(check bool) "valid thresholds" true (d1 >= 1 && d2 >= 1)
  | Optimizer.Wcoj -> Alcotest.fail "expected partitioned plan on dense block");
  (* Whatever the optimizer chose, the answer must still be right. *)
  let got = Two_path.project ~plan ~r ~s:r () in
  Alcotest.(check int) "dense clique output" (n * n) (Pairs.count got)

let test_theoretical_thresholds () =
  (* Case 1: |OUT| <= N *)
  let d1, d2 = Optimizer.theoretical_thresholds ~n:1000 ~out:125 in
  Alcotest.(check int) "case1 d1 = out^1/3" 5 d1;
  Alcotest.(check int) "case1 d2 = n/out^2/3" 40 d2;
  (* Case 2: |OUT| > N: d1 = d2 *)
  let d1, d2 = Optimizer.theoretical_thresholds ~n:1000 ~out:10_000 in
  Alcotest.(check int) "case2 equal" d1 d2;
  Alcotest.(check bool) "case2 in range" true (d1 >= 1 && d1 <= 1000);
  (* clamping *)
  let d1, d2 = Optimizer.theoretical_thresholds ~n:4 ~out:1 in
  Alcotest.(check bool) "clamped" true (d1 >= 1 && d1 <= 4 && d2 >= 1 && d2 <= 4);
  Alcotest.check_raises "guard" (Invalid_argument "Optimizer.theoretical_thresholds")
    (fun () -> ignore (Optimizer.theoretical_thresholds ~n:0 ~out:1))

let test_plan_info () =
  let r = Gen.skewed_relation ~seed:48 ~nx:30 ~ny:25 ~edges:300 () in
  let pairs, plan = Two_path.project_with_plan_info ~r ~s:r () in
  Alcotest.(check bool) "count positive" true (Pairs.count pairs > 0);
  Alcotest.(check bool) "plan join size positive" true (plan.Optimizer.join_size > 0)

(* With a guard, the plan [project_with_plan_info] returns is the one
   the guarded run starts from: made from the injected estimate, the
   same plan [project] records, with the same answer. *)
let test_plan_info_injected () =
  let module Guard = Jp_adaptive.Guard in
  let r = Gen.skewed_relation ~seed:48 ~nx:30 ~ny:25 ~edges:300 () in
  let _, clean = Two_path.project_with_plan_info ~r ~s:r () in
  let guard = Guard.with_inject (Jp_adaptive.Inject.out_only 100.) Guard.default in
  let pairs, plan = Two_path.project_with_plan_info ~guard ~r ~s:r () in
  Alcotest.(check int) "est_out injected 100x" (100 * clean.Optimizer.est_out)
    plan.Optimizer.est_out;
  Jp_obs.reset ();
  Jp_obs.enable ();
  let recorded =
    Fun.protect
      ~finally:(fun () ->
        Jp_obs.disable ();
        Jp_obs.reset ())
      (fun () ->
        ignore (Two_path.project ~guard ~r ~s:r ());
        List.map (fun p -> p.Jp_obs.est_out) (Jp_obs.plan_records ()))
  in
  Alcotest.(check (list int)) "project starts from the same plan"
    [ plan.Optimizer.est_out ] recorded;
  check_pairs "answer" (Gen.brute_two_path ~r ~s:r) (Gen.pairs_to_list pairs)

(* An absent capability is a no-op: every engine runs the same chunked
   loops with or without a cancel token, so a token that never fires
   changes neither the answer nor any work counter.  [nx] exceeds the
   4096-row poll chunk, so the token runs really are sub-chunked. *)
let work_counters =
  [
    "mm.bool_word_ops";
    "mm.count_word_ops";
    "light.probes";
    "dedup.stamp_hits";
    "dedup.stamp_misses";
    "sort.radix_bytes";
    "pool.tasks";
  ]

let counter_deltas ?(names = work_counters) f =
  let snapshot () =
    let all = Jp_obs.counter_values () in
    List.map
      (fun name -> Option.value ~default:0 (List.assoc_opt name all))
      names
  in
  let before = snapshot () in
  let x = f () in
  (x, List.combine names (List.map2 ( - ) (snapshot ()) before))

(* The row accumulator changes how rows are finalized, never what the
   merge counts: [light.probes] and [dedup.*] (presented minus produced)
   are pinned to the values a stamp-only merge gives on the spill
   instance.  Its big rows are written from the bitset or straight from
   the product and its small ones are insertion-sorted, so nothing is
   radix-sorted. *)
let test_merge_counters_pinned () =
  let r, s = spill_instance () in
  let cases =
    [
      ( "mm d1=d2=2",
        (fun domains ->
          ignore (Two_path.project ~domains ~plan:(forced_plan 2 2) ~r ~s ())),
        (278, 2, 5796) );
      ( "all light d1=d2=5",
        (fun domains ->
          ignore (Two_path.project ~domains ~plan:(forced_plan 5 5) ~r ~s ())),
        (6278, 482, 5796) );
      ( "counts d1=2",
        (fun domains ->
          ignore
            (Two_path.project_counts ~domains ~plan:(forced_plan 2 1) ~r ~s ())),
        (278, 2, 5796) );
    ]
  in
  Jp_obs.reset ();
  Jp_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Jp_obs.disable ();
      Jp_obs.reset ())
    (fun () ->
      List.iter
        (fun (label, run, (probes, hits, misses)) ->
          List.iter
            (fun domains ->
              let (), work = counter_deltas (fun () -> run domains) in
              let name = Printf.sprintf "%s, domains=%d" label domains in
              Alcotest.(check (list int))
                (name ^ ": probes, stamp hits, stamp misses")
                [ probes; hits; misses ]
                (List.map
                   (fun c -> List.assoc c work)
                   [ "light.probes"; "dedup.stamp_hits"; "dedup.stamp_misses" ]);
              Alcotest.(check int) (name ^ ": no radix sort") 0
                (List.assoc "sort.radix_bytes" work))
            [ 1; 2 ])
        cases;
      (* A row that never reaches the spill point keeps the stamp + radix
         path: with dom(z) = 2480 the spill point is 41 ids, and a
         36-id row is past the insertion-sort cutoff. *)
      let r = Relation.of_edges [| (0, 0) |] in
      let s =
        Relation.of_edges ~src_count:2480
          (Array.init 36 (fun i -> ((i * 67) + 30, 0)))
      in
      Alcotest.(check int) "dom(z)" 2480 (Relation.src_count s);
      let got, work =
        counter_deltas (fun () ->
            Two_path.project ~plan:(forced_plan 5 5) ~r ~s ())
      in
      check_pairs "sparse row" (Gen.brute_two_path ~r ~s) (Gen.pairs_to_list got);
      Alcotest.(check bool) "sparse row is radix-sorted" true
        (List.assoc "sort.radix_bytes" work > 0))

(* [Expand] deduplicates its rows in the same accumulator as the merge,
   so on the spill instance it counts what a stamp-only expansion counts
   (light.probes, stamp hits, stamp misses = 6278/482/5796, recorded at
   the parent commit for both variants) while its rows past the spill
   point are drained from the bitset instead of radix-sorted (45,296
   radix bytes at the parent commit). *)
let test_expand_counters_pinned () =
  let r, s = spill_instance () in
  Jp_obs.reset ();
  Jp_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Jp_obs.disable ();
      Jp_obs.reset ())
    (fun () ->
      List.iter
        (fun (label, run) ->
          List.iter
            (fun domains ->
              let (), work = counter_deltas (fun () -> run domains) in
              let name = Printf.sprintf "%s, domains=%d" label domains in
              Alcotest.(check (list int))
                (name ^ ": probes, stamp hits, stamp misses")
                [ 6278; 482; 5796 ]
                (List.map
                   (fun c -> List.assoc c work)
                   [ "light.probes"; "dedup.stamp_hits"; "dedup.stamp_misses" ]);
              Alcotest.(check bool) (name ^ ": fewer radix bytes") true
                (List.assoc "sort.radix_bytes" work < 45_296))
            [ 1; 2 ])
        [
          ( "project",
            fun domains -> ignore (Jp_wcoj.Expand.project ~domains ~r ~s ()) );
          ( "project_counts",
            fun domains ->
              ignore (Jp_wcoj.Expand.project_counts ~domains ~r ~s ()) );
        ])

(* The tiled heavy product through [Two_path]: [Jp_tile] builds its
   operand tiles from the rows [Two_path] feeds it, and their order and
   length seed the tiles' LANDLORD credits, hence the eviction trace.
   At a forced Partitioned plan, with 16-wide tiles and a budget small
   enough to evict, both kinds equal the flat product at domains 1 and
   2, and at domains 1 the tile and merge counters are pinned (values
   recorded from the commit before the operand rows were shared). *)
let test_tiled_heavy_pinned () =
  let r = Gen.skewed_relation ~seed:71 ~nx:300 ~ny:120 ~edges:4000 () in
  let s = Gen.skewed_relation ~seed:72 ~nx:260 ~ny:120 ~edges:3500 () in
  let tile = Jp_tile.config ~tile_bits:4 ~budget_bytes:4096 () in
  let names =
    [
      "tile.build";
      "tile.evict";
      "tile.product";
      "tile.peak_bytes";
      "mm.bool_word_ops";
      "mm.count_word_ops";
      "light.probes";
      "dedup.stamp_hits";
      "dedup.stamp_misses";
    ]
  in
  let boolean tile domains =
    `Pairs (Two_path.project ~domains ~plan:(forced_plan 3 3) ?tile ~r ~s ())
  and counts tile domains =
    `Counted
      (Two_path.project_counts ~domains ~plan:(forced_plan 3 1) ?tile ~r ~s ())
  in
  let cases =
    [
      ( "boolean",
        boolean,
        [ 5143; 5120; 323; 4096; 53516; 0; 503; 229; 76092 ] );
      ( "counts",
        counts,
        [ 2863; 2838; 323; 4096; 0; 651040; 131; 129; 76092 ] );
    ]
  in
  Jp_obs.reset ();
  Jp_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Jp_obs.disable ();
      Jp_obs.reset ())
    (fun () ->
      List.iter
        (fun (label, run, pinned) ->
          List.iter
            (fun domains ->
              let name = Printf.sprintf "%s, domains=%d" label domains in
              let flat = run None domains in
              let tiled, work =
                counter_deltas ~names (fun () -> run (Some tile) domains)
              in
              let same =
                match (flat, tiled) with
                | `Pairs a, `Pairs b -> Pairs.equal a b
                | `Counted a, `Counted b -> Jp_relation.Counted_pairs.equal a b
                | _ -> false
              in
              Alcotest.(check bool) (name ^ ": tiled = flat") true same;
              if domains = 1 then
                Alcotest.(check (list (pair string int)))
                  (name ^ ": tile and merge counters")
                  (List.combine names pinned) work)
            [ 1; 2 ])
        cases)

let test_absent_capability_noop () =
  let r = Gen.random_relation ~seed:61 ~nx:5000 ~ny:2000 ~edges:20_000 () in
  let s = Gen.random_relation ~seed:62 ~nx:3000 ~ny:2000 ~edges:15_000 () in
  let wcoj =
    { (forced_plan 1 1) with Optimizer.decision = Optimizer.Wcoj }
  in
  let pairs = Pairs.equal and counted = Jp_relation.Counted_pairs.equal in
  let boolean label ~busy ~strategy plan =
    ( label,
      busy,
      fun cancel domains ->
        `Pairs (Two_path.project ~domains ~strategy ~plan ?cancel ~r ~s ()) )
  in
  let engines =
    [
      boolean "mm partitioned" ~busy:"mm.bool_word_ops"
        ~strategy:Two_path.Matrix (forced_plan 12 4);
      boolean "mm wcoj" ~busy:"light.probes" ~strategy:Two_path.Matrix wcoj;
      boolean "non-mm partitioned" ~busy:"light.probes"
        ~strategy:Two_path.Combinatorial (forced_plan 12 4);
      boolean "non-mm wcoj" ~busy:"light.probes"
        ~strategy:Two_path.Combinatorial wcoj;
      ( "counts",
        "mm.count_word_ops",
        fun cancel domains ->
          `Counted
            (Two_path.project_counts ~domains ~plan:(forced_plan 12 1) ?cancel
               ~r ~s ()) );
      ( "expand",
        "light.probes",
        fun cancel domains ->
          `Pairs (Jp_wcoj.Expand.project ~domains ?cancel ~r ~s ()) );
      ( "expand counts",
        "light.probes",
        fun cancel domains ->
          `Counted (Jp_wcoj.Expand.project_counts ~domains ?cancel ~r ~s ()) );
    ]
  in
  Jp_obs.reset ();
  Jp_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Jp_obs.disable ();
      Jp_obs.reset ())
    (fun () ->
      List.iter
        (fun (label, busy, run) ->
          List.iter
            (fun domains ->
              let name = Printf.sprintf "%s, domains=%d" label domains in
              let bare, bare_work = counter_deltas (fun () -> run None domains) in
              let token = Jp_util.Cancel.create () in
              let live, live_work =
                counter_deltas (fun () -> run (Some token) domains)
              in
              let same =
                match (bare, live) with
                | `Pairs a, `Pairs b -> pairs a b
                | `Counted a, `Counted b -> counted a b
                | _ -> false
              in
              Alcotest.(check bool) (name ^ ": same result") true same;
              Alcotest.(check (list (pair string int)))
                (name ^ ": same work counters") bare_work live_work;
              Alcotest.(check bool)
                (Printf.sprintf "%s: %s counted work" name busy)
                true
                (List.assoc busy bare_work > 0))
            [ 1; 2 ])
        engines)

let suite =
  [
    Alcotest.test_case "partition classification" `Quick test_partition_classification;
    Alcotest.test_case "partition prunes zero rows" `Quick test_partition_prunes_zero_rows;
    Alcotest.test_case "two-path thresholds uniform" `Quick test_two_path_all_thresholds_uniform;
    Alcotest.test_case "two-path thresholds skewed" `Quick test_two_path_all_thresholds_skewed;
    Alcotest.test_case "two-path self join" `Quick test_two_path_self_join;
    Alcotest.test_case "two-path spill rows" `Quick test_two_path_spill_rows;
    Alcotest.test_case "two-path planned" `Quick test_two_path_planned;
    Alcotest.test_case "two-path parallel" `Quick test_two_path_parallel;
    QCheck_alcotest.to_alcotest prop_two_path_random;
    Alcotest.test_case "counts thresholds" `Quick test_counts_all_thresholds;
    Alcotest.test_case "counts spill rows" `Quick test_counts_spill_rows;
    Alcotest.test_case "counts cap fallback" `Quick test_counts_cap_fallback;
    Alcotest.test_case "counts planned" `Quick test_counts_planned;
    Alcotest.test_case "estimator bounds" `Quick test_estimator_bounds;
    Alcotest.test_case "estimator sampled" `Quick test_estimator_sampled;
    Alcotest.test_case "optimizer wcoj shortcircuit" `Quick test_optimizer_wcoj_shortcircuit;
    Alcotest.test_case "optimizer dense partition" `Quick test_optimizer_picks_partition_on_dense;
    Alcotest.test_case "theoretical thresholds" `Quick test_theoretical_thresholds;
    Alcotest.test_case "plan info" `Quick test_plan_info;
    Alcotest.test_case "plan info under injection" `Quick test_plan_info_injected;
    Alcotest.test_case "plans pinned on the presets" `Quick test_plans_pinned;
    Alcotest.test_case "merge counters pinned" `Quick test_merge_counters_pinned;
    Alcotest.test_case "expand counters pinned" `Quick test_expand_counters_pinned;
    Alcotest.test_case "tiled heavy product pinned" `Quick
      test_tiled_heavy_pinned;
    Alcotest.test_case "absent capability is a no-op" `Quick
      test_absent_capability_noop;
  ]
