(* dense-2path / sparse-2path: a closed loop with one client.  Each round
   runs the 2-path self-join pi_xz(R(x,y), S(z,y)) with R = S = one preset
   at scale 1.0, once per preset of the workload, through
   [Two_path.project] (MMJoin, Algorithm 3 plan, 2 domains).

   The traced run adds, per query, an outside-in decomposition: the
   benchmark calls each layer's public functions itself (prepare, plan,
   partition, operand build, kernel, light expansion, the cell with a
   fixed plan) and times them.  The merge/dedup/materialize residual is
   the cell minus the phases that can be called on their own. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Presets = Jp_workload.Presets
module Optimizer = Joinproj.Optimizer
module Partition = Joinproj.Partition
module Two_path = Joinproj.Two_path
module Boolmat = Jp_matrix.Boolmat
module Expand = Jp_wcoj.Expand
module Timer = Jp_util.Timer
module Stats = Perfbench.Stats
module Checksum = Perfbench.Checksum
module Spans = Perfbench.Spans

let domains = 2

let scale = 1.0

let presets = function
  | `Dense -> Presets.[ Jokes; Words; Protein; Image ]
  | `Sparse -> Presets.[ Dblp; Roadnet ]

type dataset = {
  name : string;
  r : Relation.t;
  plan : Optimizer.plan;
  expect : Checksum.t;  (* of the Bitset(EH) baseline's answer *)
}

(* One traced query's layer times (seconds) and work counters. *)
type layer_sample = {
  prepare : float;
  plan_t : float;
  partition : float;
  operand : float;
  kernel : float;
  light : float;
  cell : float;
  counters : int array;
}

let query ds = Two_path.project ~domains ~r:ds.r ~s:ds.r ()

(* The light sub-joins of Algorithm 1 as direct expansion calls: light x
   joins everything; heavy x joins through light y; heavy x and heavy y
   join to light z only, through S restricted to light z (built inside
   the timed call, as the engine splits S's lists inside its merge).
   Each call deduplicates on its own, so the sum slightly overstates the
   light share of a merged cell. *)
let light_part ~r (p : Partition.t) =
  let nx = Relation.src_count r in
  let light a = Relation.deg_src r a <= p.d2 in
  let xs keep = Array.of_list (List.filter keep (List.init nx Fun.id)) in
  let light_xs = xs light and heavy_xs = xs (fun a -> not (light a)) in
  let light_y = Partition.is_light_y p in
  fun () ->
    let s_light_z = Relation.restrict_src r light in
    let a = Expand.project ~domains ~xs:light_xs ~r ~s:r () in
    let b = Expand.project ~domains ~xs:heavy_xs ~keep_y:light_y ~r ~s:r () in
    let c =
      Expand.project ~domains ~xs:heavy_xs
        ~keep_y:(fun y -> not (light_y y))
        ~r ~s:s_light_z ()
    in
    ignore (Pairs.count a + Pairs.count b + Pairs.count c)

(* M_R+ and M_S+ built from the partition's public fields. *)
let operands ~r (p : Partition.t) =
  let m1 =
    Boolmat.create ~rows:(Array.length p.heavy_x) ~cols:(Array.length p.heavy_y)
  in
  Array.iteri
    (fun i a ->
      Array.iter
        (fun b ->
          let j = p.y_index.(b) in
          if j >= 0 then Boolmat.set m1 i j)
        (Relation.adj_src r a))
    p.heavy_x;
  let m2 =
    Boolmat.create ~rows:(Array.length p.heavy_y) ~cols:(Array.length p.heavy_z)
  in
  Array.iteri
    (fun j b ->
      if b < Relation.dst_count r then
        Array.iter
          (fun c ->
            let l = p.z_index.(c) in
            if l >= 0 then Boolmat.set m2 j l)
          (Relation.adj_dst r b))
    p.heavy_y;
  (m1, m2)

(* The outside-in decomposition of one query.  [check_product] compares
   the benchmark's own heavy product with the engine's.  The second
   result is false when a check fails: the product, the answer, or the
   plan (which must equal the one pinned at set-up). *)
let decompose sp ~tid ~check_product ~counters ds =
  let r = ds.r in
  let span name f = Spans.span sp ~tid name f in
  let prep, prepare = span "optimizer.prepare" (fun () -> Optimizer.prepare ~r ~s:r) in
  let plan, plan_t =
    span "optimizer.plan" (fun () ->
        Optimizer.plan_prepared ~domains ~kind:Jp_matrix.Cost.Boolean prep ())
  in
  let partition, operand, kernel, light, product_ok =
    match plan.decision with
    | Optimizer.Wcoj ->
      let _, light =
        span "wcoj.expand" (fun () -> Expand.project ~domains ~r ~s:r ())
      in
      (0., 0., 0., light, true)
    | Optimizer.Partitioned { d1; d2 } ->
      let p, partition =
        span "partition.make" (fun () -> Partition.make ~r ~s:r ~d1 ~d2 ())
      in
      let (m1, m2), operand = span "matrix.operands" (fun () -> operands ~r p) in
      let product, kernel =
        span "matrix.mul" (fun () -> Boolmat.mul ~domains m1 m2)
      in
      let product_ok =
        (not check_product)
        || Boolmat.equal product (Two_path.heavy_product ~domains ~r ~s:r p)
      in
      let run_light = light_part ~r p in
      let _, light = span "wcoj.expand_light" run_light in
      (partition, operand, kernel, light, product_ok)
  in
  let res, cell =
    span "two_path.project_planned" (fun () ->
        Two_path.project ~domains ~plan:ds.plan ~r ~s:r ())
  in
  let ok =
    product_ok
    && plan.decision = ds.plan.decision
    && Checksum.equal (Checksum.of_pairs res) ds.expect
  in
  ({ prepare; plan_t; partition; operand; kernel; light; cell; counters }, ok)

(* The presets at their fixed default seed: a run's seed varies the order
   of the queries within each round, not the data. *)
let setup which =
  List.map (fun name -> (Presets.to_string name, Presets.load ~scale name)) (presets which)

(* [order g n] is the seeded query order of one round. *)
let order g n =
  let a = Array.init n Fun.id in
  Jp_util.Rng.shuffle g a;
  a

let prepare_datasets loaded =
  List.map
    (fun (name, r) ->
      let plan = Optimizer.plan ~domains ~kind:Jp_matrix.Cost.Boolean ~r ~s:r () in
      let expect =
        Checksum.of_pairs (Jp_baselines.Bitset_engine.two_path ~r ~s:r ())
      in
      { name; r; plan; expect })
    loaded

(* Closed-loop rounds until [seconds] have passed (at least one).
   Returns the wall and CPU time of each round's queries alone (checks run
   outside the timers), the number of queries and of wrong answers. *)
let untraced_rounds ~g ~seconds dss =
  let dss = Array.of_list dss in
  let times = ref [] and cpus = ref [] and wrong = ref 0 and queries = ref 0 in
  let stop = Timer.now () +. seconds in
  while !times = [] || Timer.now () < stop do
    let round = ref 0. and round_cpu = ref 0. in
    Array.iter
      (fun i ->
        let ds = dss.(i) in
        let c0 = Common.cpu_now () in
        let res, dt = Timer.time (fun () -> query ds) in
        round_cpu := !round_cpu +. (Common.cpu_now () -. c0);
        round := !round +. dt;
        incr queries;
        if not (Checksum.equal (Checksum.of_pairs res) ds.expect) then incr wrong)
      (order g (Array.length dss));
    times := !round :: !times;
    cpus := !round_cpu :: !cpus
  done;
  (Array.of_list (List.rev !times), Array.of_list (List.rev !cpus), !queries, !wrong)

type traced = {
  round_times : float array;  (* the queries alone, as untraced *)
  samples : layer_sample list array;  (* per dataset, one per round *)
  t_queries : int;
  t_wrong : int;
}

let traced_rounds sp ~g ~seconds dss =
  let dss = Array.of_list dss in
  let nd = Array.length dss in
  let samples = Array.make nd [] in
  let times = ref [] and wrong = ref 0 and tid = ref 0 in
  let stop = Timer.now () +. seconds in
  let first = ref true in
  Jp_obs.enable ();
  while !first || Timer.now () < stop do
    (* Engine spans are not read; dropping them each round keeps the
       recorder's memory flat. *)
    Jp_obs.reset ();
    let round = ref 0. in
    Array.iter
      (fun i ->
        let ds = dss.(i) in
        let before = Common.snapshot () in
        let res, dt = Spans.span sp ~tid:!tid "two_path.project" (fun () -> query ds) in
        let counters = Common.delta before (Common.snapshot ()) in
        round := !round +. dt;
        if not (Checksum.equal (Checksum.of_pairs res) ds.expect) then incr wrong;
        let s, ok = decompose sp ~tid:!tid ~check_product:!first ~counters ds in
        if not ok then incr wrong;
        samples.(i) <- s :: samples.(i);
        incr tid)
      (order g nd);
    first := false;
    times := !round :: !times
  done;
  Jp_obs.disable ();
  Jp_obs.reset ();
  {
    round_times = Array.of_list (List.rev !times);
    samples = Array.map List.rev samples;
    t_queries = !tid;
    t_wrong = !wrong;
  }

let fmt_ms s = Printf.sprintf "%.3f" (Common.ms s)

(* Per-layer metrics: times are medians over rounds of the per-round sum
   across datasets; counters are per-round sums, which are identical in
   every round when plans are pinned. *)
let layers ~untraced_p50 dss (t : traced) =
  let rounds = Array.length t.round_times in
  let samples = Array.map Array.of_list t.samples in
  let per_round f =
    Array.init rounds (fun k ->
        Array.fold_left (fun acc l -> acc +. f l.(k)) 0. samples)
  in
  let med f = Stats.median (per_round f) in
  let merge s = s.cell -. s.partition -. s.operand -. s.kernel -. s.light in
  let counters =
    List.mapi
      (fun c (name, _) -> (name, med (fun s -> float_of_int s.counters.(c))))
      Common.work_counters
  in
  let stable =
    Array.for_all
      (fun l ->
        match l with
        | [] -> true
        | s0 :: rest -> List.for_all (fun s -> s.counters = s0.counters) rest)
      t.samples
  in
  if not stable then print_endline "warning: work counters differ between rounds";
  let est = List.fold_left (fun acc ds -> acc + ds.plan.Optimizer.est_out) 0 dss in
  let out = List.fold_left (fun acc ds -> acc + ds.expect.Checksum.count) 0 dss in
  let hits = List.assoc "dedup.stamp_hits" counters
  and misses = List.assoc "dedup.stamp_misses" counters in
  [
    ("optimizer.prepare_ms", Common.ms (med (fun s -> s.prepare)));
    ("optimizer.plan_ms", Common.ms (med (fun s -> s.plan_t)));
    ("optimizer.est_out_ratio", float_of_int est /. float_of_int (max 1 out));
    ("partition.make_ms", Common.ms (med (fun s -> s.partition)));
    ("matrix.operand_ms", Common.ms (med (fun s -> s.operand)));
    ("matrix.kernel_ms", Common.ms (med (fun s -> s.kernel)));
    ("wcoj.light_ms", Common.ms (med (fun s -> s.light)));
    ("two_path.cell_ms", Common.ms (med (fun s -> s.cell)));
    ("two_path.merge_ms", Common.ms (med merge));
    ("dedup.useful_ratio", Common.useful_ratio ~hits ~misses);
    ( "obs.overhead_pct",
      Common.overhead_pct ~untraced:untraced_p50
        ~traced:(Stats.median t.round_times) );
  ]
  @ counters

let print_table ~traced dss (t : traced option) =
  let header =
    [ "dataset"; "plan"; "|OUT|"; "checksum" ]
    @
    if traced then
      [ "prepare"; "plan"; "partition"; "operand"; "kernel"; "light"; "cell";
        "merge"; "bool_words"; "probes"; "stamp_hit"; "stamp_miss"; "radix_B";
        "spawns"; "tasks" ]
    else []
  in
  let rows =
    List.mapi
      (fun i ds ->
        [ ds.name; Optimizer.decision_to_string ds.plan.decision;
          string_of_int ds.expect.Checksum.count; Checksum.to_string ds.expect ]
        @
        match t with
        | None -> []
        | Some t ->
          let l = Array.of_list t.samples.(i) in
          let med f = fmt_ms (Stats.median (Array.map f l)) in
          let c name =
            let rec index i = function
              | (n, _) :: rest -> if n = name then i else index (i + 1) rest
              | [] -> invalid_arg name
            in
            string_of_int l.(0).counters.(index 0 Common.work_counters)
          in
          [ med (fun s -> s.prepare); med (fun s -> s.plan_t);
            med (fun s -> s.partition); med (fun s -> s.operand);
            med (fun s -> s.kernel); med (fun s -> s.light);
            med (fun s -> s.cell);
            med (fun s -> s.cell -. s.partition -. s.operand -. s.kernel -. s.light);
            c "mm.bool_word_ops"; c "light.probes"; c "dedup.stamp_hits";
            c "dedup.stamp_misses"; c "sort.radix_bytes"; c "pool.spawns";
            c "pool.tasks" ])
      dss
  in
  Jp_util.Tablefmt.print ~header ~rows

let run ~which ~seed ~seconds ~trace sp =
  let loaded, setup_cpu_s, setup_wall_s =
    Common.timed_setup ~repeats:5 (fun () -> setup which)
  in
  let dss = prepare_datasets loaded in
  let g = Jp_util.Rng.create seed in
  (* warm-up round: first-touch allocation and code paths *)
  let _, _, _, warm_wrong = untraced_rounds ~g ~seconds:0. dss in
  let untraced_share = if trace then 1. /. 3. else 1. in
  let times, cpus, queries, untraced_wrong =
    untraced_rounds ~g ~seconds:(seconds *. untraced_share) dss
  in
  let untraced_p50 = Stats.median times in
  let traced =
    if trace then
      Some
        (traced_rounds sp ~g ~seconds:(seconds -. (seconds *. untraced_share)) dss)
    else None
  in
  print_table ~traced:trace dss traced;
  let wrong = untraced_wrong + warm_wrong + Option.fold ~none:0 ~some:(fun t -> t.t_wrong) traced in
  let attempted =
    queries + List.length dss + Option.fold ~none:0 ~some:(fun t -> t.t_queries) traced
  in
  let answers = float_of_int (max 1 (queries - untraced_wrong)) in
  {
    Common.setup_cpu_s;
    setup_wall_s;
    cpu_per_query_s = Array.fold_left ( +. ) 0. cpus /. answers;
    cpu = cpus;
    qps = answers /. Array.fold_left ( +. ) 0. times;
    wall = times;
    attempted;
    failed = wrong;
    wrong;
    layers =
      (match traced with
      | Some t ->
        let layers = layers ~untraced_p50 dss t in
        ("error_rate", float_of_int wrong /. float_of_int attempted) :: layers
      | None -> []);
  }
