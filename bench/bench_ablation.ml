(* Ablations for the design choices DESIGN.md calls out:

   ABL-DEDUP   stamp-vector vs hash-table deduplication (the Section-6
               discussion: "upfront reservation ... expensive both in time
               and memory");
   ABL-KERNEL  bit-sliced matrix kernels vs the scalar i-k-j product
               (why the 62-way word packing is the SGEMM stand-in);
   ABL-SORT    monomorphic radix sort vs polymorphic Array.sort for output
               group finalization;
   ABL-EST     output-size estimator accuracy: bounds / geometric mean
               (the paper's Section 5 estimate) / sampling refinement
               (its future-work direction);
   ABL-GUARD   adaptive plan guards (Jp_adaptive): overhead of a clean
               guarded run, and recovery when the planner's |OUT| estimate
               is deterministically injected 100x off in either direction
               (registered as its own tag so CI can smoke it alone);
   ABL-CHAOS   the query service (Jp_service): cost of cancellation
               polling with a live token, of the full served path
               (queue + worker domain + ticket), and of recovering from
               deterministically injected transient faults via
               retry-with-backoff and degradation (own tag, CI smoke);
   ABL-CACHE   the cross-query semantic cache (Jp_cache): miss-path
               overhead of a cold cache, warm-path reuse of prepared
               statistics and heavy-part products, and the end-to-end
               speedup on a Zipf-repeated served workload where repeats
               hit the whole-result level (own tag, CI smoke);
   ABL-OBS     the observability/metrics stack (Jp_obs + Jp_metrics):
               cost of recording armed but nothing exported — spans,
               counters, latency histograms, gauges and per-query
               snapshots all live — vs recording off, on the bare
               engine and on the served path (own tag, CI smoke);
   ABL-CQ      the decomposition planner for general acyclic CQs
               (Jp_query.Planner): auto (cost-gated MM fragments /
               whole-query star bypass) vs the forced pure-Yannakakis
               foil on queries with projected-away join variables; the
               gate must carve where MM wins (skewed jokes) and decline
               where |OUT| ~ join size (dblp) (own tag, CI smoke);
   ABL-LOAD    open-loop saturation sweep (Jp_workload.Arrivals +
               Jp_service.Overload): seeded arrival schedules at rates
               bracketing the knee, overload controller (shed / dequeue
               expiry / brownout) vs the bare bounded queue; goodput
               must stay near the knee with the controller on while the
               foil collapses past it (own tag, CI smoke);
   ABL-TILE    tiled, memory-bounded heavy-part MM (Jp_tile): overhead
               of forcing the two-path heavy product through the tiled
               schedule at default sizes, and a capped-memory cell whose
               operand tiles exceed the resident budget many times over
               — it must stream under the cap (LANDLORD evict/rebuild)
               and stay bit-equal to the flat kernel (own tag, CI
               smoke). *)

module Relation = Jp_relation.Relation
module Presets = Jp_workload.Presets
module Tablefmt = Jp_util.Tablefmt

(* Hash-based dedup expansion, built here only as the ablation's foil. *)
let expand_hash_dedup r =
  let seen = Hashtbl.create 1024 in
  let nz = Relation.src_count r in
  Relation.iter
    (fun x y ->
      Array.iter
        (fun z -> Hashtbl.replace seen ((x * nz) + z) ())
        (Relation.adj_dst r y))
    r;
  Hashtbl.length seen

let dedup cfg =
  Bench_common.section "ABL-DEDUP: stamp vector vs hash table (two-path dedup)";
  let rows =
    List.map
      (fun name ->
        let r = Bench_common.dataset cfg name in
        let stamp, n1 =
          Bench_common.timed_cell cfg (fun () ->
              Jp_relation.Pairs.count (Jp_wcoj.Expand.project ~r ~s:r ()))
        in
        let hash, n2 = Bench_common.timed_cell cfg (fun () -> expand_hash_dedup r) in
        Bench_common.check_consistent cfg ~label:(Presets.to_string name) [ n1; n2 ];
        [ Presets.to_string name; stamp; hash ])
      [ Presets.Jokes; Presets.Protein; Presets.Image ]
  in
  Tablefmt.print ~header:[ "dataset"; "stamp vector"; "hash table" ] ~rows;
  Bench_common.note
    "Section 6's claim: hash dedup pays reservation/rehash costs the stamp";
  Bench_common.note "vector avoids."

let kernels cfg =
  Bench_common.section "ABL-KERNEL: bit-sliced kernels vs scalar i-k-j product";
  let n = max 4 (int_of_float (600.0 *. cfg.Bench_common.scale)) in
  let g = Jp_util.Rng.create 3 in
  let bm = Jp_matrix.Boolmat.create ~rows:n ~cols:n in
  let im = Jp_matrix.Intmat.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if Jp_util.Rng.float g 1.0 < 0.4 then begin
        Jp_matrix.Boolmat.set bm i j;
        Jp_matrix.Intmat.set im i j 1
      end
    done
  done;
  let t_bool = Bench_common.time cfg (fun () -> Jp_matrix.Boolmat.mul bm bm) in
  let t_cnt = Bench_common.time cfg (fun () -> Jp_matrix.Boolmat.count_product bm bm) in
  let t_scalar = Bench_common.time cfg (fun () -> Jp_matrix.Intmat.mul im im) in
  Tablefmt.print
    ~header:[ "kernel"; Printf.sprintf "time (n=%d)" n ]
    ~rows:
      [
        [ "boolean OR (62-way packed)"; Tablefmt.seconds t_bool ];
        [ "count AND+popcount (62-way)"; Tablefmt.seconds t_cnt ];
        [ "scalar i-k-j (blocked)"; Tablefmt.seconds t_scalar ];
      ]

let sorts cfg =
  Bench_common.section "ABL-SORT: radix Intsort vs polymorphic Array.sort";
  let g = Jp_util.Rng.create 5 in
  let rows = max 16 (int_of_float (4000.0 *. cfg.Bench_common.scale)) in
  let data () =
    Array.init rows (fun _ -> Array.init 800 (fun _ -> Jp_util.Rng.int g 100_000))
  in
  let a = data () and b = data () in
  let t_radix = Bench_common.time cfg (fun () -> Array.iter Jp_util.Intsort.sort a) in
  let t_poly =
    Bench_common.time cfg (fun () -> Array.iter (fun g -> Array.sort compare g) b)
  in
  Tablefmt.print
    ~header:[ "sort"; Printf.sprintf "time (%d groups of 800)" rows ]
    ~rows:
      [
        [ "Intsort (radix)"; Tablefmt.seconds t_radix ];
        [ "Array.sort compare"; Tablefmt.seconds t_poly ];
      ]

let estimators cfg =
  Bench_common.section "ABL-EST: output-size estimation accuracy";
  let rows =
    List.map
      (fun name ->
        let r = Bench_common.dataset cfg name in
        let truth = Jp_wcoj.Expand.count_distinct ~r ~s:r () in
        let lower, upper = Joinproj.Estimator.bounds ~r ~s:r in
        let geo = Joinproj.Estimator.estimate ~r ~s:r in
        let smp = Joinproj.Estimator.sampled ~r ~s:r () in
        let err v =
          Printf.sprintf "%.2fx" (float_of_int (max v truth) /. float_of_int (max 1 (min v truth)))
        in
        [
          Presets.to_string name;
          Tablefmt.big_int truth;
          Printf.sprintf "[%s, %s]" (Tablefmt.big_int lower) (Tablefmt.big_int upper);
          Printf.sprintf "%s (%s)" (Tablefmt.big_int geo) (err geo);
          Printf.sprintf "%s (%s)" (Tablefmt.big_int smp) (err smp);
        ])
      Presets.all
  in
  Tablefmt.print
    ~header:[ "dataset"; "|OUT| truth"; "bounds"; "geometric (err)"; "sampled (err)" ]
    ~rows;
  Bench_common.note
    "the sampling estimator (the paper's future-work direction) tightens the";
  Bench_common.note "geometric-mean estimate Section 5 uses."

let thresholds cfg =
  Bench_common.section
    "ABL-THRESH: Algorithm 3 (cost-based) vs Lemma 3 (closed form) thresholds";
  let rows =
    List.filter_map
      (fun name ->
        let r = Bench_common.dataset cfg name in
        let plan = Joinproj.Optimizer.plan ~r ~s:r () in
        match plan.Joinproj.Optimizer.decision with
        | Joinproj.Optimizer.Wcoj -> None
        | Joinproj.Optimizer.Partitioned { d1; d2 } ->
          let n = Relation.size r in
          let out = Jp_wcoj.Expand.count_distinct ~r ~s:r () in
          let t1, t2 = Joinproj.Optimizer.theoretical_thresholds ~n ~out in
          let run thresholds =
            let d1, d2 = thresholds in
            let forced =
              {
                plan with
                Joinproj.Optimizer.decision =
                  Joinproj.Optimizer.Partitioned { d1; d2 };
              }
            in
            Bench_common.time cfg (fun () ->
                Joinproj.Two_path.project ~plan:forced ~r ~s:r ())
          in
          Some
            [
              Presets.to_string name;
              Printf.sprintf "(%d, %d)" d1 d2;
              Tablefmt.seconds (run (d1, d2));
              Printf.sprintf "(%d, %d)" t1 t2;
              Tablefmt.seconds (run (t1, t2));
            ])
      Presets.all
  in
  Tablefmt.print
    ~header:
      [ "dataset"; "Alg.3 (d1,d2)"; "time"; "Lemma 3 (d1,d2)"; "time" ]
    ~rows;
  Bench_common.note
    "the cost-based thresholds adapt to the machine constants; the closed";
  Bench_common.note "form assumes omega=2 and uniform degrees."

let dynamic cfg =
  Bench_common.section "ABL-DYNAMIC: incremental view maintenance vs recomputation";
  let r = Bench_common.dataset cfg Presets.Dblp in
  let view = Jp_dynamic.View.init ~r ~s:r () in
  let updates = 5_000 in
  let rng = Jp_util.Rng.create 99 in
  let nx = Relation.src_count r and ny = Relation.dst_count r in
  let t_updates =
    Bench_common.time cfg (fun () ->
        for _ = 1 to updates do
          let a = Jp_util.Rng.int rng nx and b = Jp_util.Rng.int rng ny in
          if Jp_util.Rng.bool rng then Jp_dynamic.View.insert_r view a b
          else Jp_dynamic.View.delete_r view a b
        done)
  in
  let t_recompute =
    Bench_common.time cfg (fun () -> Joinproj.Two_path.project_counts ~r ~s:r ())
  in
  Tablefmt.print
    ~header:[ "operation"; "time" ]
    ~rows:
      [
        [
          Printf.sprintf "%d single-tuple updates (maintained)" updates;
          Tablefmt.seconds t_updates;
        ];
        [ "one full recomputation"; Tablefmt.seconds t_recompute ];
        [
          "per update";
          Printf.sprintf "%.1fus" (1e6 *. t_updates /. float_of_int updates);
        ];
      ];
  Bench_common.note
    "maintenance amortizes: each delta costs O(deg) instead of a full join."

(* |π_xz(R ⋈ R)| through Two_path, with whatever capability a cell arms. *)
let self_count ?guard ?cancel ?memo r =
  Jp_relation.Pairs.count (Joinproj.Two_path.project ?guard ?cancel ?memo ~r ~s:r ())

let guard cfg =
  Bench_common.section
    "ABL-GUARD: adaptive plan guards under injected misestimation";
  let module Guard = Jp_adaptive.Guard in
  let module Inject = Jp_adaptive.Inject in
  let run ?guard ~label r =
    Bench_common.timed_cell ~label cfg (fun () -> self_count ?guard r)
  in
  let rows =
    List.map
      (fun name ->
        let r = Bench_common.dataset cfg name in
        let ds = Presets.to_string name in
        let base, n0 = run ~label:(ds ^ "/unguarded") r in
        let clean, n1 = run ~guard:Guard.default ~label:(ds ^ "/guard-clean") r in
        let under, n2 =
          run
            ~guard:(Guard.with_inject (Inject.out_only 0.01) Guard.default)
            ~label:(ds ^ "/inject-0.01") r
        in
        let over, n3 =
          run
            ~guard:(Guard.with_inject (Inject.out_only 100.0) Guard.default)
            ~label:(ds ^ "/inject-100") r
        in
        let degrade, n4 =
          run
            ~guard:(Guard.with_budget_ms 0.0 Guard.default)
            ~label:(ds ^ "/budget-0") r
        in
        Bench_common.check_consistent cfg ~label:ds [ n0; n1; n2; n3; n4 ];
        [ ds; base; clean; under; over; degrade ])
      [ Presets.Jokes; Presets.Dblp ]
  in
  Tablefmt.print
    ~header:
      [
        "dataset"; "unguarded"; "guard (clean)"; "inject 0.01"; "inject 100";
        "budget 0ms";
      ]
    ~rows;
  Bench_common.note
    "a clean guard adds only per-chunk checkpoints (target: <5%% overhead);";
  Bench_common.note
    "under a 100x |OUT| mis-estimate the guard re-plans mid-query and should";
  Bench_common.note
    "stay within ~2x of the correctly-planned time; budget 0ms must degrade";
  Bench_common.note "to the safe combinatorial path, same |OUT| everywhere."

(* The answers of a served run, in submission order; any typed error
   aborts the ablation [tag]. *)
let answers ~tag run =
  Array.map
    (fun rep ->
      match rep.Jp_service.outcome with
      | Ok n -> n
      | Error e -> failwith (tag ^ ": " ^ Jp_service.error_to_string e))
    run.Jp_served.reports

let chaos cfg =
  Bench_common.section
    "ABL-CHAOS: cancellation polling, service wrapping and fault recovery";
  let module Cancel = Jp_util.Cancel in
  (* One query through the service; create/shutdown sit outside the timed
     cell so the row prices the steady-state path (queue, worker domain,
     ticket, retries), not domain spawning. *)
  let serve ~label ~chaos w =
    let svc = Jp_service.create { Jp_service.default with Jp_service.chaos } in
    let cell =
      Bench_common.timed_cell ~label cfg (fun () ->
          (answers ~tag:"ABL-CHAOS" (Jp_served.closed w svc [| 0 |])).(0))
    in
    Jp_service.shutdown svc;
    cell
  in
  (* p_transient = 1.0: every non-degraded attempt faults, so the query
     deterministically burns all retries and succeeds on the degraded
     attempt — the row prices the full recovery pipeline. *)
  let hostile = { (Jp_chaos.default 11) with Jp_chaos.p_transient = 1.0 } in
  let rows =
    List.map
      (fun name ->
        let r = Bench_common.dataset cfg name in
        let ds = Presets.to_string name in
        let bare, n0 =
          Bench_common.timed_cell ~label:(ds ^ "/bare") cfg (fun () -> self_count r)
        in
        let polled, n1 =
          Bench_common.timed_cell ~label:(ds ^ "/cancel-token") cfg (fun () ->
              self_count ~cancel:(Cancel.create ()) r)
        in
        let w = Jp_served.create ~flavour:Jp_served.Mm [| r |] in
        let served, n2 = serve ~label:(ds ^ "/served") ~chaos:None w in
        let chaotic, n3 = serve ~label:(ds ^ "/chaos") ~chaos:(Some hostile) w in
        Bench_common.check_consistent cfg ~label:ds [ n0; n1; n2; n3 ];
        [ ds; bare; polled; served; chaotic ])
      [ Presets.Jokes; Presets.Dblp ]
  in
  Tablefmt.print
    ~header:
      [ "dataset"; "bare engine"; "cancel token"; "served"; "chaos (retry+degrade)" ]
    ~rows;
  Bench_common.note
    "a live-but-never-cancelled token only adds chunk-granular polls";
  Bench_common.note
    "(target: <2%% over bare); the served column adds queue+ticket handoff;";
  Bench_common.note
    "the chaos column deterministically faults every normal attempt, so it";
  Bench_common.note
    "pays retries, backoff and the degraded safe path — same |OUT| everywhere."

let semantic_cache cfg =
  Bench_common.section "ABL-CACHE: cross-query semantic cache (Jp_cache)";
  (* Single-query cells: the cold cache prices the miss path (every
     lookup misses, every artifact is inserted), the warm cache reuses
     the prepared statistics and the heavy-part product. *)
  let rows =
    List.map
      (fun name ->
        let r = Bench_common.dataset cfg name in
        let ds = Presets.to_string name in
        let bare, n0 =
          Bench_common.timed_cell ~label:(ds ^ "/uncached") cfg (fun () ->
              self_count r)
        in
        let cold, n1 =
          Bench_common.timed_cell ~label:(ds ^ "/cache-cold") cfg (fun () ->
              let c = Jp_cache.create () in
              self_count ~memo:(Jp_cache.two_path_memo c ~r ~s:r) r)
        in
        let warm = Jp_cache.create () in
        ignore (self_count ~memo:(Jp_cache.two_path_memo warm ~r ~s:r) r);
        let hot, n2 =
          Bench_common.timed_cell ~label:(ds ^ "/cache-warm") cfg (fun () ->
              self_count ~memo:(Jp_cache.two_path_memo warm ~r ~s:r) r)
        in
        Bench_common.check_consistent cfg ~label:ds [ n0; n1; n2 ];
        [ ds; bare; cold; hot ])
      [ Presets.Jokes; Presets.Dblp ]
  in
  Tablefmt.print
    ~header:[ "dataset"; "uncached"; "cache (cold)"; "cache (warm)" ]
    ~rows;
  (* The headline: a Zipf-repeated served workload, closed loop, with and
     without the cache.  Repeated queries hit the whole-result level and
     resolve without touching a worker domain. *)
  let r = Bench_common.dataset cfg Presets.Jokes in
  let nq = 32 and distinct = 4 in
  let w =
    Jp_served.create ~flavour:Jp_served.Mm (Jp_served.sample ~seed:401 distinct r)
  in
  let zipf = Jp_workload.Zipf.create ~exponent:1.2 distinct in
  let g = Jp_util.Rng.create 402 in
  let ident = Array.init nq (fun _ -> Jp_workload.Zipf.sample zipf g) in
  let svc =
    Jp_service.create { Jp_service.default with Jp_service.queue_capacity = nq }
  in
  let serve cache =
    Array.fold_left ( + ) 0
      (answers ~tag:"ABL-CACHE" (Jp_served.closed ?cache w svc ident))
  in
  let s0 = ref 0 and s1 = ref 0 in
  let t0 =
    Bench_common.time ~label:"zipf-serve/uncached" cfg (fun () ->
        s0 := serve None)
  in
  (* Fresh cache inside the thunk: the cell prices a full workload from
     cold, first occurrences missing and repeats hitting. *)
  let t1 =
    Bench_common.time ~label:"zipf-serve/cached" cfg (fun () ->
        s1 := serve (Some (Jp_cache.create ())))
  in
  Jp_service.shutdown svc;
  Bench_common.check_consistent cfg ~label:"zipf-serve" [ !s0; !s1 ];
  Tablefmt.print
    ~header:
      [
        Printf.sprintf "served Zipf workload (%d q / %d distinct)" nq distinct;
        "time";
      ]
    ~rows:
      [
        [ "uncached"; Tablefmt.seconds t0 ];
        [ "cached (fresh cache, all three levels)"; Tablefmt.seconds t1 ];
        [ "speedup"; Printf.sprintf "%.1fx" (t0 /. t1) ];
      ];
  Bench_common.note
    "targets: cold-path overhead <2%% over uncached, and >=5x on the";
  Bench_common.note
    "Zipf-repeated served workload (repeats resolve from the result level";
  Bench_common.note "without touching a worker; every answer stays verified)."

let obs cfg =
  Bench_common.section
    "ABL-OBS: observability/metrics overhead, armed but not exported";
  (* The effect under test is a few percent at most, far below the
     run-to-run noise of a single repeat, so this ablation takes the
     median of at least 5 runs per cell even at --quick. *)
  let cfg = { cfg with Bench_common.repeats = max cfg.Bench_common.repeats 5 } in
  (* A small pipelined batch through the service: with recording armed
     this path pays spans with args, lifecycle counters, two histogram
     observations, queue/in-flight gauge updates and one gauge snapshot
     per query.  Batching amortizes the per-query submit/await domain
     handoff, which is far noisier than the effect under test. *)
  let serve_batch = 6 in
  let serve svc w =
    let batch = Jp_served.closed w svc (Array.make serve_batch 0) in
    (answers ~tag:"ABL-OBS" batch).(serve_batch - 1)
  in
  let timed label f =
    let n = ref 0 in
    let t = Bench_common.time ~label cfg (fun () -> n := f ()) in
    (t, !n)
  in
  let pct off on =
    if off <= 0.0 then "-" else Printf.sprintf "%+.1f%%" (((on /. off) -. 1.0) *. 100.0)
  in
  let was_recording = Jp_obs.recording () in
  let rows =
    List.map
      (fun name ->
        let r = Bench_common.dataset cfg name in
        let ds = Presets.to_string name in
        let w = Jp_served.create ~flavour:Jp_served.Mm [| r |] in
        (* Recording-off cells run first (Bench_common only emits JSON
           records for armed cells, so those rows are timing-only); the
           untimed warmup calls keep allocator/cache warm-up effects out
           of whichever cell happens to run first. *)
        Jp_obs.disable ();
        ignore (self_count r);
        let e_off, n0 = timed (ds ^ "/engine-off") (fun () -> self_count r) in
        let svc = Jp_service.create Jp_service.default in
        ignore (serve svc w);
        let s_off, n1 = timed (ds ^ "/served-off") (fun () -> serve svc w) in
        Jp_service.shutdown svc;
        Jp_obs.enable ();
        ignore (self_count r);
        let e_on, n2 = timed (ds ^ "/engine-armed") (fun () -> self_count r) in
        let svc = Jp_service.create Jp_service.default in
        ignore (serve svc w);
        let s_on, n3 = timed (ds ^ "/served-armed") (fun () -> serve svc w) in
        Jp_service.shutdown svc;
        Bench_common.check_consistent cfg ~label:ds [ n0; n1; n2; n3 ];
        [
          ds;
          Tablefmt.seconds e_off;
          Tablefmt.seconds e_on;
          pct e_off e_on;
          Tablefmt.seconds s_off;
          Tablefmt.seconds s_on;
          pct s_off s_on;
        ])
      [ Presets.Jokes; Presets.Dblp ]
  in
  if was_recording then Jp_obs.enable () else Jp_obs.disable ();
  Tablefmt.print
    ~header:
      [
        "dataset";
        "engine off";
        "engine armed";
        "overhead";
        "served off";
        "served armed";
        "overhead";
      ]
    ~rows;
  Bench_common.note
    "armed = Jp_obs.enable() with histograms, gauges and per-query snapshots";
  Bench_common.note
    "live but nothing exported (target: <2%% over recording off); the";
  Bench_common.note
    "engine columns price span/counter gating, the served columns add the";
  Bench_common.note "full Jp_metrics path — same |OUT| in every cell."

let cq cfg =
  Bench_common.section
    "ABL-CQ: decomposition planner vs pure Yannakakis on acyclic CQs";
  let module Engine = Jp_query.Engine in
  let module Planner = Jp_query.Planner in
  let parse text =
    match Jp_query.Cq.parse text with
    | Ok q -> q
    | Error e -> failwith ("ABL-CQ: " ^ e)
  in
  let run ~policy catalog q =
    match Engine.run ~policy catalog q with
    | Ok out -> Jp_relation.Tuples.count out
    | Error e -> failwith ("ABL-CQ: " ^ e)
  in
  let plan_line catalog q =
    match Engine.plan_of ~catalog q with
    | Ok p -> Engine.describe p
    | Error e -> failwith ("ABL-CQ: " ^ e)
  in
  (* The star row runs at a reduced scale: its Yannakakis foil
     materializes the full per-bag joins and grows much faster than the
     MM bypass, so the full-scale foil would dominate the whole tag. *)
  let cases =
    [
      ("jokes", 1.0, "path4", "Q(a, d) :- R(a, b), S(b, c), T(c, d)");
      ("dblp", 1.0, "path4", "Q(a, d) :- R(a, b), S(b, c), T(c, d)");
      ("jokes", 0.3, "star3", "Q(a, b, d) :- R(a, c), S(c, b), T(c, d)");
    ]
  in
  let rows =
    List.map
      (fun (ds, rel_scale, qname, text) ->
        let name =
          match Presets.of_string ds with
          | Some n -> n
          | None -> failwith ("ABL-CQ: unknown dataset " ^ ds)
        in
        let r =
          if rel_scale = 1.0 then Bench_common.dataset cfg name
          else Presets.load ~scale:(cfg.Bench_common.scale *. rel_scale) name
        in
        let catalog = [ ("R", r); ("S", r); ("T", r) ] in
        let q = parse text in
        let label = ds ^ "/" ^ qname in
        let auto, n0 =
          Bench_common.timed_cell ~label:(label ^ "/auto") cfg (fun () ->
              run ~policy:Planner.Cost_gate catalog q)
        in
        let foil, n1 =
          Bench_common.timed_cell ~label:(label ^ "/yannakakis") cfg (fun () ->
              run ~policy:Planner.Never_mm catalog q)
        in
        Bench_common.check_consistent cfg ~label [ n0; n1 ];
        [ label; auto; foil; plan_line catalog q ])
      cases
  in
  Tablefmt.print ~header:[ "dataset/query"; "auto"; "yannakakis"; "auto plan" ] ~rows;
  Bench_common.note
    "auto must beat the foil where a fragment is carved (jokes: skewed";
  Bench_common.note
    "degrees, |OUT| << join size) and match it within noise where the gate";
  Bench_common.note
    "declines (dblp: |OUT| ~ join size, MM would not pay); both policies";
  Bench_common.note "must agree on |OUT| in every cell."

(* ABL-LOAD: the open-loop saturation sweep.  A seeded arrival schedule
   is replayed against the service at rates bracketing the knee
   (workers / single-query time); past the knee the bare bounded queue
   (controller off) fills with work that expires uselessly — queued
   queries die at their deadline, some after burning a worker mid-run —
   while the overload controller sheds at admission, expires stale
   tickets at dequeue without an engine attempt, and browns out, so
   goodput (answers within deadline per second) stays near the knee
   value. *)
let load cfg =
  Bench_common.section
    "ABL-LOAD: open-loop saturation sweep, overload controller vs bare queue";
  let module Service = Jp_service in
  let module Hist = Jp_metrics.Hist in
  let r = Bench_common.dataset cfg Presets.Jokes in
  let distinct = 8 in
  let w =
    Jp_served.create ~flavour:Jp_served.Mm (Jp_served.sample ~seed:501 distinct r)
  in
  (* Knee estimate: the service's fault-free throughput ceiling. *)
  let t0 =
    let runs =
      List.init 3 (fun d -> snd (Jp_util.Timer.time (fun () -> Jp_served.answer w d)))
    in
    List.nth (List.sort Float.compare runs) 1
  in
  let workers = max 1 (min 2 (Jp_parallel.Pool.available_cores ())) in
  let knee = float_of_int workers /. t0 in
  let deadline_s = 4.0 *. t0 in
  (* Each swept rate runs for a fixed wall-clock window, not a fixed query
     count: past the knee the point is the steady state (backlog pinned at
     the deadline horizon, worker burning dead work), which a short burst
     never reaches. *)
  let duration_s = 0.8 in
  let run_sweep ~ctl rate =
    let nq = max 16 (int_of_float (rate *. duration_s)) in
    let cfg_s =
      {
        Service.default with
        Service.workers;
        queue_capacity = 2 * nq;
        default_deadline_s = Some deadline_s;
        controller = (if ctl then Some Service.Overload.default else None);
      }
    in
    let svc = Service.create cfg_s in
    let run =
      Jp_served.open_loop w svc
        ~schedule:(Jp_workload.Arrivals.schedule ~seed:7 ~rate ~count:nq ())
        (Array.init nq (fun i -> i mod distinct))
    in
    Service.shutdown svc;
    let v = Jp_served.verdict w run in
    if v.wrong > 0 then begin
      Printf.printf "  ERROR: %d served answers disagree with the unloaded engine\n%!"
        v.wrong;
      if cfg.Bench_common.strict then exit 1
    end;
    v
  in
  let results =
    List.map
      (fun m ->
        let rate = m *. knee in
        (m, rate, run_sweep ~ctl:false rate, run_sweep ~ctl:true rate))
      [ 0.5; 1.0; 2.0; 8.0 ]
  in
  let row m rate ctl (v : Jp_served.verdict) =
    let nq = Array.length v.run.reports and n k = Hist.count (Jp_served.outcome v k) in
    let other = nq - v.completed - n "shed" - n "expired" - n "deadline" in
    [ Printf.sprintf "%.2gx knee (%.1f/s)" m rate; ctl ]
    @ List.map string_of_int
        [ nq; v.completed; n "shed"; n "expired"; n "deadline"; other ]
    @ [ (if Hist.count v.e2e = 0 then "-"
         else Tablefmt.seconds (Hist.quantile v.e2e 0.99));
        Printf.sprintf "%.1f/s" v.goodput ]
  in
  Tablefmt.print
    ~header:
      [ "arrival rate"; "ctl"; "sub"; "ok"; "shed"; "expired"; "deadline";
        "other"; "p99"; "goodput" ]
    ~rows:
      (List.concat_map
         (fun (m, rate, off, on) -> [ row m rate "off" off; row m rate "on" on ])
         results);
  let _, _, (off_hi : Jp_served.verdict), (on_hi : Jp_served.verdict) =
    List.nth results (List.length results - 1)
  in
  Bench_common.note
    "single query %s, knee ~%.1f/s (%d worker(s)), deadline %s"
    (Tablefmt.seconds t0) knee workers
    (Tablefmt.seconds deadline_s);
  Bench_common.note
    "targets: past the knee the controller keeps goodput near the knee";
  Bench_common.note
    "value (shed/expire/brownout instead of queueing to death) while the";
  Bench_common.note
    "bare queue collapses; below the knee the controller is within noise.";
  if cfg.Bench_common.strict && on_hi.goodput < off_hi.goodput then begin
    Printf.printf
      "  ERROR: controller-on goodput %.1f/s < controller-off %.1f/s at the \
       highest rate\n%!"
      on_hi.goodput off_hi.goodput;
    exit 1
  end

(* ABL-TILE: the tiled heavy-part product.  Two claims are priced: the
   tiled schedule is near-free at default sizes (so the size gate can
   err toward tiling), and a resident budget far below the operands'
   footprint still completes, streaming tiles LANDLORD-style, with a
   bit-equal result. *)
let tile cfg =
  Bench_common.section
    "ABL-TILE: tiled, memory-bounded heavy-part MM (Jp_tile)";
  let count ?tile r =
    Jp_relation.Pairs.count
      (Joinproj.Two_path.project ~strategy:Joinproj.Two_path.Matrix ?tile ~r
         ~s:r ())
  in
  let forced = Jp_tile.config ~force:true () in
  let rows =
    List.map
      (fun name ->
        let r = Bench_common.dataset cfg name in
        let ds = Presets.to_string name in
        let flat, n0 =
          Bench_common.timed_cell ~label:(ds ^ "/untiled") cfg (fun () ->
              count r)
        in
        let tiled, n1 =
          Bench_common.timed_cell ~label:(ds ^ "/tiled") cfg (fun () ->
              count ~tile:forced r)
        in
        Bench_common.check_consistent cfg ~label:ds [ n0; n1 ];
        [ ds; flat; tiled ])
      [ Presets.Jokes; Presets.Dblp ]
  in
  Tablefmt.print
    ~header:[ "dataset"; "untiled"; "tiled (forced, 512-wide)" ]
    ~rows;
  Bench_common.note
    "target: the forced tiled schedule within 5%% of the flat kernel at";
  Bench_common.note "default sizes (the size gate may then err toward tiling).";
  (* The capped-memory cell: a synthetic boolean product whose operand
     tiles total many times the budget.  The kernel must stay under the
     cap (peak read from the tile.* counters) and agree bit-for-bit. *)
  let n = max 256 (int_of_float (2000.0 *. cfg.Bench_common.scale)) in
  let g = Jp_util.Rng.create 17 in
  let m = Jp_matrix.Boolmat.create ~rows:n ~cols:n in
  for i = 0 to n - 1 do
    for _ = 0 to 39 do
      Jp_matrix.Boolmat.set m i (Jp_util.Rng.int g n)
    done
  done;
  let operand_bytes =
    Jp_matrix.Cost.tile_operand_bytes Jp_matrix.Cost.Boolean ~u:n ~v:n ~w:n
  in
  let budget = max 4096 (operand_bytes / 16) in
  let capped =
    Jp_tile.config ~tile_bits:6 ~budget_bytes:budget ~force:true ()
  in
  let src = Jp_tile.Source.of_boolmat m in
  let was_recording = Jp_obs.recording () in
  if not was_recording then Jp_obs.enable ();
  let peak_before =
    Option.value ~default:0
      (List.assoc_opt "tile.peak_bytes" (Jp_obs.counter_values ()))
  in
  let nnz_tiled = ref 0 in
  let t_capped =
    Bench_common.time ~label:"capped/tiled" cfg (fun () ->
        nnz_tiled := Jp_matrix.Boolmat.nnz (Jp_tile.mul capped src src))
  in
  (* The counter accumulates one high-water mark per repeat; each run is
     deterministic at domains = 1, so the per-run peak is the mean. *)
  let peak =
    (Option.value ~default:0
       (List.assoc_opt "tile.peak_bytes" (Jp_obs.counter_values ()))
    - peak_before)
    / max 1 cfg.Bench_common.repeats
  in
  if not was_recording then Jp_obs.disable ();
  let nnz_flat = ref 0 in
  let t_flat =
    Bench_common.time ~label:"capped/flat" cfg (fun () ->
        nnz_flat := Jp_matrix.Boolmat.nnz (Jp_matrix.Boolmat.mul m m))
  in
  Bench_common.check_consistent cfg ~label:"capped product"
    [ !nnz_tiled; !nnz_flat ];
  if peak > budget then begin
    Printf.printf
      "  ERROR: tile store peak %d bytes exceeds the %d-byte budget\n%!" peak
      budget;
    if cfg.Bench_common.strict then exit 1
  end;
  Tablefmt.print
    ~header:
      [ Printf.sprintf "capped product (n=%d, cap=%dK)" n (budget / 1024); "time" ]
    ~rows:
      [
        [ "flat (both operands resident)"; Tablefmt.seconds t_flat ];
        [
          Printf.sprintf "tiled under cap (peak %dK, %dx over budget)"
            (peak / 1024)
            (operand_bytes / budget);
          Tablefmt.seconds t_capped;
        ];
      ];
  Bench_common.note
    "operands exceed the resident cap; the tiled kernel streams (evict +";
  Bench_common.note "rebuild) and must return the flat kernel's exact matrix."

