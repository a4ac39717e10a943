module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Obs = Jp_obs
module Cancel = Jp_util.Cancel
module Source = Jp_tile.Source
module Row_acc = Jp_wcoj.Row_acc

type strategy = Matrix | Combinatorial

(* Memoization hooks (consumed by [Jp_cache], which sits above this
   library in the dependency graph).  Each hook receives the builder for
   a deterministic intermediate — the prepared optimizer indexes, or a
   heavy-part matrix product identified by its thresholds — and may
   return a previously built value for the same (r, s, thresholds)
   instead of calling it.  A memo is specific to the (r, s) pair it was
   created for.  [no_memo] (the default) calls every builder directly. *)
type memo = {
  memo_prepared : (unit -> Optimizer.prepared) -> Optimizer.prepared;
  memo_bool_product : d1:int -> d2:int -> (unit -> Boolmat.t) -> Boolmat.t;
  memo_count_product : d1:int -> (unit -> Intmat.t) -> Intmat.t;
  memo_bool_tile :
    d1:int ->
    d2:int ->
    tile_bits:int ->
    ti:int ->
    tj:int ->
    (unit -> Boolmat.t) ->
    Boolmat.t;
  memo_count_tile :
    d1:int ->
    tile_bits:int ->
    ti:int ->
    tj:int ->
    (unit -> Intmat.t) ->
    Intmat.t;
}

let no_memo =
  {
    memo_prepared = (fun build -> build ());
    memo_bool_product = (fun ~d1:_ ~d2:_ build -> build ());
    memo_count_product = (fun ~d1:_ build -> build ());
    memo_bool_tile =
      (fun ~d1:_ ~d2:_ ~tile_bits:_ ~ti:_ ~tj:_ build -> build ());
    memo_count_tile = (fun ~d1:_ ~tile_bits:_ ~ti:_ ~tj:_ build -> build ());
  }

(* Cancellation support.  [Cancel.check_opt] is the phase-boundary
   checkpoint; the chunked merge loops poll every [poll_rows] rows (the
   guard-checkpoint granularity), reusing one row accumulator per worker
   across sub-chunks.  An absent token is never polled. *)
let poll_rows = Jp_wcoj.Expand.poll_rows

(* Rows the guarded Wcoj path expands before its first plan-vs-actual
   extrapolation checkpoint. *)
let probe_rows = 1024

(* ------------------------------------------------------------------ *)
(* The heavy product                                                   *)
(* ------------------------------------------------------------------ *)

(* The heavy product's operands (Section 3.1) as row views over a
   partition, fed unchanged to the flat build and to the tiled kernel.
   Heavy endpoints [ids] of [rel] → heavy-y positions: x rows of R (left
   operand of both kinds) or z rows of S (the count product's right
   operand, which [Boolmat.count_product] takes transposed). *)
let endpoint_rows rel ids (p : Partition.t) =
  Source.of_rows ~rows:(Array.length ids) ~cols:(Array.length p.heavy_y)
    (fun i f ->
      Array.iter
        (fun b ->
          let j = p.y_index.(b) in
          if j >= 0 then f j)
        (Relation.adj_src rel ids.(i)))

(* Heavy y → heavy-z positions: the boolean product's right operand. *)
let y_rows ~s (p : Partition.t) =
  Source.of_rows ~rows:(Array.length p.heavy_y) ~cols:(Array.length p.heavy_z)
    (fun j f ->
      let y = p.heavy_y.(j) in
      if y < Relation.dst_count s then
        Array.iter
          (fun c ->
            let l = p.z_index.(c) in
            if l >= 0 then f l)
          (Relation.adj_dst s y))

(* The flat build writes each position straight into its bitset row. *)
let materialize o =
  let m = Boolmat.create ~rows:(Source.rows o) ~cols:(Source.cols o) in
  for i = 0 to Source.rows o - 1 do
    Source.row o i (Boolmat.set m i)
  done;
  m

let flat_product kernel a b =
  Obs.span "two_path.heavy_mm" (fun () ->
      let ma, mb =
        Obs.span "two_path.operands" (fun () -> (materialize a, materialize b))
      in
      kernel ma mb)

(* The one tile decision: with [?tile], [Jp_tile] streams the product
   from the operand rows (tiles built on demand through its bounded
   store, memoized per output tile); without, the flat kernel runs
   behind the whole-product memo hook, whose hit skips the build. *)
let product ~tile ~whole ~flat ~tiled a b =
  match tile with
  | None -> whole (fun () -> flat_product flat a b)
  | Some cfg -> Obs.span "two_path.heavy_mm" (fun () -> tiled cfg a b)

(* Public: the BSI fast path builds (and caches) the same product over a
   full-relation partition, answering heavy-heavy point queries straight
   from its bits. *)
let heavy_product ?(domains = 1) ~r ~s (p : Partition.t) =
  flat_product (Boolmat.mul ~domains)
    (endpoint_rows r p.heavy_x p)
    (y_rows ~s p)

let bool_product ?cancel ?checkpoint ~tile ~memo ~domains ~r ~s
    (p : Partition.t) =
  let d1 = p.d1 and d2 = p.d2 in
  product ~tile
    ~whole:(memo.memo_bool_product ~d1 ~d2)
    ~flat:(Boolmat.mul ~domains)
    ~tiled:(fun cfg ->
      Jp_tile.mul ~domains ?cancel ?checkpoint
        ~memo:(memo.memo_bool_tile ~d1 ~d2 ~tile_bits:cfg.Jp_tile.tile_bits)
        cfg)
    (endpoint_rows r p.heavy_x p) (y_rows ~s p)

(* The count product A·Bᵀ over bit-packed rows (62 multiply-adds per
   word op): A rows are x's heavy-y sets, B rows are z's. *)
let count_product ?cancel ?checkpoint ~tile ~memo ~domains ~r ~s
    (p : Partition.t) =
  let d1 = p.d1 in
  product ~tile
    ~whole:(memo.memo_count_product ~d1)
    ~flat:(Boolmat.count_product ~domains)
    ~tiled:(fun cfg ->
      Jp_tile.count_product ~domains ?cancel ?checkpoint
        ~memo:(memo.memo_count_tile ~d1 ~tile_bits:cfg.Jp_tile.tile_bits)
        cfg)
    (endpoint_rows r p.heavy_x p) (endpoint_rows s p.heavy_z p)

(* ------------------------------------------------------------------ *)
(* Boolean (dedup-only) evaluation                                     *)
(* ------------------------------------------------------------------ *)

(* For heavy y values, pre-filter S's inverted list to its light-z
   ([light] set) or heavy-z half once (O(N)); the per-x merge loop would
   otherwise rescan whole inverted lists just to filter them,
   degenerating to the full join when few values are light.  The matrix
   strategy needs only the light half. *)
let filter_heavy_s ~r ~s ~light (p : Partition.t) =
  let ny = max (Relation.dst_count r) (Relation.dst_count s) in
  let out = Array.make ny [||] in
  let keep c = (Relation.deg_src s c <= p.d2) = light in
  Array.iter
    (fun b ->
      if b < Relation.dst_count s then begin
        let zs = Relation.adj_dst s b in
        let n = Array.fold_left (fun n c -> if keep c then n + 1 else n) 0 zs in
        if n = Array.length zs then out.(b) <- zs
        else if n > 0 then begin
          let kept = Array.make n 0 and k = ref 0 in
          Array.iter
            (fun c ->
              if keep c then begin
                kept.(!k) <- c;
                incr k
              end)
            zs;
          out.(b) <- kept
        end
      end)
    p.heavy_y;
  out

(* Where a merged row's heavy-heavy pairs come from: a row of the heavy
   matrix product, or (the combinatorial strategy) an expansion over S's
   heavy-z lists of heavy y. *)
type heavy_part = Product of Boolmat.t | Expand of int array array

(* The merged per-x loop over rows [lo, hi): light contributions from
   R- |><| S and R |><| S-, heavy contributions from the matrix product
   (or from a heavy-restricted expansion for the combinatorial strategy),
   all deduplicated in one row accumulator.  Returns the number of pairs
   produced — the observed-output statistic guard checkpoints
   extrapolate from. *)
let merge_range ~scratch:t ~r ~s ~(p : Partition.t) ~heavy ~s_light_of_heavy_y
    ~rows lo hi =
  let produced = ref 0 in
  for a = lo to hi - 1 do
    Row_acc.start t;
    let a_light = Relation.deg_src r a <= p.d2 in
    Array.iter
      (fun b ->
        if a_light || Partition.is_light_y p b then
          Row_acc.scan t (Relation.adj_dst s b)
        else
          (* heavy a, heavy b: only the S- tuples (light z) are
             joined here; heavy z is the matrix part's job *)
          Row_acc.scan t s_light_of_heavy_y.(b))
      (Relation.adj_src r a);
    let row =
      match heavy with
      | Product m ->
        let i = p.x_index.(a) in
        if i < 0 then Row_acc.finish t
        else Row_acc.finish_mapped t (Boolmat.row m i) p.heavy_z
      | Expand s_heavy_of_heavy_y ->
        if not a_light then
          Array.iter
            (fun b ->
              if not (Partition.is_light_y p b) then
                Row_acc.scan t s_heavy_of_heavy_y.(b))
            (Relation.adj_src r a);
        Row_acc.finish t
    in
    produced := !produced + Array.length row;
    rows.(a) <- row
  done;
  Row_acc.record t;
  !produced

(* ------------------------------------------------------------------ *)
(* Boolean evaluation driver                                           *)
(* ------------------------------------------------------------------ *)

(* Matrix cells the partition would materialize (u·v + v·w + u·w) — the
   intermediate-size quantity {!Guard.budget}'s [max_cells] bounds. *)
let partition_cells (p : Partition.t) =
  let u = Array.length p.heavy_x
  and v = Array.length p.heavy_y
  and w = Array.length p.heavy_z in
  (u * v) + (v * w) + (u * w)

(* A time-budget checkpoint that only records its outcome: once the
   matrices are built (or on the safe Wcoj path) nothing cheaper
   remains, so a blown budget cannot change the plan. *)
let note_budget g =
  let module Guard = Jp_adaptive.Guard in
  match Guard.check_budget g ~cells:0 with
  | Guard.Degrade -> Guard.note_degrade g
  | Guard.Continue | Guard.Replan -> ()

(* Execution of [plan0], supervised by the guard [g] when present.
   Checkpoints (all once per chunk or phase, never per tuple):

   - entry: a zero time budget degrades before any work;
   - Wcoj probe: after [probe_rows] rows, extrapolate |OUT| and re-plan if
     it diverges from the estimate, or if a clean re-plan prefers the
     matrix path by more than the divergence factor (an mm-cost
     misestimate leaves est_out honest but the decision wrong) — a switch
     keeps the rows already expanded and runs the new plan on the rest;
   - post-partition, pre-MM: the cells budget vetoes the matrices
     (combinatorial heavy part instead), and the plan's est_seconds is
     compared against the honest cost of the chosen thresholds;
   - per-chunk during the light merge (single-domain only): wall-clock
     budget and |OUT| extrapolation; a mid-merge re-plan resumes the new
     plan at the current row, keeping all finished rows.

   Without a guard every checkpoint is skipped: a Wcoj plan is one
   expansion of the whole x domain, whose result is the answer, and a
   Partitioned plan is one partition, heavy product and chunked merge.
   Re-planning is always done with clean (un-injected) statistics and
   bounded by the guard's fuel, so the recursion terminates.  A cancel
   token is polled at these checkpoints, at phase boundaries and once
   per merge chunk. *)
let run_project ?cancel ?tile ~g ~prep ~domains ~strategy ~memo ~phases ~r ~s
    plan0 =
  let module Guard = Jp_adaptive.Guard in
  let nx = Relation.src_count r in
  (* Effective chunk sizes: bounded by the config but scaled to the x
     domain, so dense datasets (few, large sets) still get a handful of
     checkpoints instead of finishing inside one chunk. *)
  let check_chunk, probe =
    match g with
    | None -> (poll_rows, nx)
    | Some _ -> (max 64 (min poll_rows (nx / 8)), max 64 (min probe_rows (nx / 4)))
  in
  let rows = lazy (Array.make nx [||]) in
  let whole = ref None in
  let produced = ref 0 in
  let strat = ref strategy in
  (* A blown budget (time, or the partition's matrix [cells]) vetoes the
     matrices: the heavy part runs through the combinatorial expansion,
     which materializes nothing. *)
  let veto_matrices g ~cells =
    match Guard.check_budget g ~cells with
    | Guard.Degrade ->
      Guard.note_degrade g;
      strat := Combinatorial
    | Guard.Continue | Guard.Replan -> ()
  in
  let expand_into lo hi =
    if hi > lo then
      Obs.phase phases "wcoj" (fun () ->
          if lo = 0 && hi = nx then
            whole := Some (Jp_wcoj.Expand.project ~domains ?cancel ~r ~s ())
          else begin
            let xs = Array.init (hi - lo) (fun i -> lo + i) in
            let out = Jp_wcoj.Expand.project ~domains ?cancel ~xs ~r ~s () in
            let rows = Lazy.force rows in
            for a = lo to hi - 1 do
              let row = Pairs.row out a in
              rows.(a) <- row;
              produced := !produced + Array.length row
            done
          end)
  in
  let replan est_out =
    Obs.phase phases "replan" (fun () ->
        Option.iter Guard.note_replan g;
        Optimizer.plan_prepared ~domains ~kind:Jp_matrix.Cost.Boolean ~est_out
          (Lazy.force prep) ())
  in
  let rec run plan lo =
    if lo < nx then
      match plan.Optimizer.decision with
      | Optimizer.Wcoj -> run_wcoj plan lo
      | Optimizer.Partitioned { d1; d2 } -> run_partitioned plan ~d1 ~d2 lo
  and run_wcoj plan lo =
    let probe_hi = min nx (lo + probe) in
    expand_into lo probe_hi;
    match g with
    | Some g when probe_hi < nx -> (
      Cancel.check_opt cancel;
      (* Wcoj already is the safe path: a blown budget only marks the
         outcome — the remaining rows still have to be expanded. *)
      note_budget g;
      let obs_out = max 1 (!produced * nx / probe_hi) in
      match
        Guard.check_estimate g
          ~est:(float_of_int plan.Optimizer.est_out)
          ~observed:(float_of_int obs_out)
      with
      | Guard.Replan -> run (replan obs_out) probe_hi
      | (Guard.Continue | Guard.Degrade) when Guard.can_replan g ->
        let np =
          Optimizer.plan_prepared ~domains ~kind:Jp_matrix.Cost.Boolean
            ~est_out:obs_out (Lazy.force prep) ()
        in
        let wcoj_cost =
          Optimizer.estimate_cost_prepared ~domains
            ~kind:Jp_matrix.Cost.Boolean (Lazy.force prep) Optimizer.Wcoj
        in
        (match np.Optimizer.decision with
        | Optimizer.Partitioned _
          when Guard.check_estimate g ~est:np.Optimizer.est_seconds
                 ~observed:wcoj_cost
               = Guard.Replan ->
          Guard.note_replan g;
          run np probe_hi
        | _ -> expand_into probe_hi nx)
      | Guard.Continue | Guard.Degrade -> expand_into probe_hi nx)
    | _ -> ()
  and run_partitioned plan ~d1 ~d2 lo =
    Cancel.check_opt cancel;
    let p =
      Obs.phase phases "partition" (fun () ->
          Partition.make ?cancel ~r ~s ~d1 ~d2 ())
    in
    let replan_on_cost =
      match g with
      | None -> false
      | Some g ->
        veto_matrices g ~cells:(partition_cells p);
        !strat = Matrix && Guard.can_replan g
        &&
        let honest =
          Optimizer.estimate_cost_prepared ~domains
            ~kind:Jp_matrix.Cost.Boolean (Lazy.force prep)
            (Optimizer.Partitioned { d1; d2 })
        in
        Guard.check_estimate g ~est:plan.Optimizer.est_seconds ~observed:honest
        = Guard.Replan
    in
    if replan_on_cost then run (replan (Estimator.sampled ~r ~s ())) lo
    else merge_partitioned plan ~p lo
  and merge_partitioned plan ~p lo =
    (* Guard checkpoints (per output tile, per merge chunk) and the
       mid-merge re-plan run only on the calling domain: worker domains
       race past sequential checkpoints, so parallel runs keep only the
       plan-time and pre-MM checks. *)
    let caller_guard = if domains <= 1 then g else None in
    Cancel.check_opt cancel;
    let product =
      match !strat with
      | Matrix ->
        let checkpoint = Option.map (fun g () -> note_budget g) caller_guard in
        Some
          (Obs.phase phases "heavy-mm" (fun () ->
               bool_product ?cancel ?checkpoint ~tile ~memo ~domains ~r ~s p))
      | Combinatorial -> None
    in
    Cancel.check_opt cancel;
    let rows = Lazy.force rows in
    let resume = ref None in
    (* The per-chunk checkpoint: [false] stops the merge, to resume the
       re-planned query at row [j]. *)
    let checkpoint g j =
      note_budget g;
      let obs_out = max 1 (!produced * nx / j) in
      match
        Guard.check_estimate g
          ~est:(float_of_int plan.Optimizer.est_out)
          ~observed:(float_of_int obs_out)
      with
      | Guard.Replan ->
        let np = replan obs_out in
        np.Optimizer.decision
        = Optimizer.Partitioned { d1 = p.Partition.d1; d2 = p.Partition.d2 }
        || begin
          resume := Some (np, j);
          false
        end
      | Guard.Continue | Guard.Degrade -> true
    in
    Obs.phase phases "light-merge" (fun () ->
        Obs.span "two_path.light_merge" (fun () ->
            let s_light_of_heavy_y = filter_heavy_s ~r ~s ~light:true p in
            let heavy =
              match product with
              | Some m -> Product m
              | None -> Expand (filter_heavy_s ~r ~s ~light:false p)
            in
            Jp_parallel.Pool.split_ranges ~domains ?cancel ~chunk:check_chunk ~lo
              ~hi:nx
              ~alloc:(fun () -> Row_acc.create (Relation.src_count s))
              (fun scratch i j ->
                let n =
                  merge_range ~scratch ~r ~s ~p ~heavy ~s_light_of_heavy_y
                    ~rows i j
                in
                match caller_guard with
                | Some g ->
                  produced := !produced + n;
                  j >= nx || checkpoint g j
                | None -> true)));
    match !resume with Some (np, at) -> run np at | None -> ()
  in
  (* Entry checkpoint: a zero (or already blown) time budget forbids
     matrix plans outright. *)
  Option.iter
    (fun g ->
      Cancel.check_opt cancel;
      veto_matrices g ~cells:0)
    g;
  run plan0 0;
  match !whole with
  | Some out -> out
  | None -> Pairs.of_rows_unchecked (Lazy.force rows)

(* The frame both entry points share: the engine span, [Guard.start],
   [prepare] built at most once (the initial plan forces it and every
   checkpoint re-plan reuses it), the initial plan from [planner] given
   a guard's injected misestimation (the optimizer's own statistics
   without a guard), and the plan-vs-actual record.  [run] returns the
   answer and the plan to record; the frame returns the answer and the
   initial plan. *)
let with_plan ~span ~label ~memo ~plan ~guard ~planner ~count ~r ~s run =
  let module Guard = Jp_adaptive.Guard in
  Obs.span span (fun () ->
      let t0 = Jp_util.Timer.now () in
      let phases = ref [] in
      let g = Option.map Guard.start guard in
      let prep = lazy (memo.memo_prepared (fun () -> Optimizer.prepare ~r ~s)) in
      let plan =
        match plan with
        | Some p -> p
        | None ->
          Obs.phase phases "plan" (fun () ->
              let prep = Lazy.force prep in
              match g with
              | None -> planner None None prep
              | Some g ->
                let inj = Guard.inject g in
                let est_out = Optimizer.estimated_out prep in
                planner
                  (Some (Jp_adaptive.Inject.out inj est_out))
                  (Some inj.Jp_adaptive.Inject.mm_factor) prep)
      in
      let result, (ran : Optimizer.plan) = run ~g ~prep ~phases plan in
      if Obs.recording () then begin
        let replanned, degraded =
          match g with
          | Some g -> (Guard.replanned g, Guard.degraded g)
          | None -> (false, false)
        in
        Obs.record_plan ~label ~replanned ~degraded
          ~decision:(Optimizer.decision_to_string ran.decision)
          ~est_out:ran.est_out ~join_size:ran.join_size
          ~est_seconds:ran.est_seconds ~actual_out:(count result)
          ~actual_seconds:(Jp_util.Timer.now () -. t0)
          ~phases:(List.rev !phases) ()
      end;
      (result, plan))

let boolean ~domains ~strategy ~plan ~guard ?cancel ~memo ?tile ~r ~s () =
  with_plan ~span:"two_path.project" ~label:"two_path" ~memo ~plan ~guard
    ~planner:(fun est_out mm_cost_scale prep ->
      Optimizer.plan_prepared ~domains ~kind:Jp_matrix.Cost.Boolean ?est_out
        ?mm_cost_scale prep ())
    ~count:Pairs.count ~r ~s
    (fun ~g ~prep ~phases plan ->
      ( run_project ?cancel ?tile ~g ~prep ~domains ~strategy ~memo ~phases ~r
          ~s plan,
        plan ))

let project ?(domains = 1) ?(strategy = Matrix) ?plan ?guard ?cancel ?memo
    ?tile ~r ~s () =
  let memo = Option.value memo ~default:no_memo in
  fst (boolean ~domains ~strategy ~plan ~guard ?cancel ~memo ?tile ~r ~s ())

let project_with_plan_info ?(domains = 1) ?(strategy = Matrix) ?guard ?cancel
    ?tile ~r ~s () =
  boolean ~domains ~strategy ~plan:None ~guard ?cancel ~memo:no_memo ?tile ~r ~s
    ()

(* ------------------------------------------------------------------ *)
(* Exact-count evaluation (partition on the join variable only)        *)
(* ------------------------------------------------------------------ *)

(* A pair's witnesses can be split between light and heavy y values, so
   counts from the expansion and from the count-matrix product are summed
   per pair before freezing the row.  Also returns whether the count
   matrices were actually used — [false] means the cell cap forced the
   combinatorial fallback, which the guarded path records as a
   degradation. *)
let counted_partitioned ?cancel ?tile ?checkpoint ~phases ~domains ~memo ~r ~s
    ~d1 ~cap () =
  let p = Partition.of_join_variable ~r ~s ~d1 in
  let u = Array.length p.heavy_x
  and v = Array.length p.heavy_y
  and w = Array.length p.heavy_z in
  let use_matrix = v > 0 && u * v <= cap && v * w <= cap && u * w <= cap in
  let product =
    if not use_matrix then None
    else
      Some
        (Obs.phase phases "heavy-count-mm" (fun () ->
             count_product ?cancel ?checkpoint ~tile ~memo ~domains ~r ~s p))
  in
  let treat_all_light = product = None in
  let nx = Relation.src_count r in
  let rows = Array.make nx ([||], [||]) in
  Cancel.check_opt cancel;
  Obs.phase phases "count-merge" (fun () ->
      Obs.span "two_path.count_merge" (fun () ->
          let run_rows t lo hi =
            for a = lo to hi - 1 do
              Row_acc.start t;
              Array.iter
                (fun b ->
                  if treat_all_light || p.light_y.(b) then
                    Row_acc.scan_counted t (Relation.adj_dst s b))
                (Relation.adj_src r a);
              (match product with
              | Some m ->
                let i = p.x_index.(a) in
                if i >= 0 then Row_acc.scan_weighted t p.heavy_z m.Intmat.data.(i)
              | None -> ());
              rows.(a) <- Row_acc.finish_counted t
            done;
            Row_acc.record t
          in
          Jp_parallel.Pool.split_ranges ~domains ?cancel ~chunk:poll_rows ~lo:0
            ~hi:nx
            ~alloc:(fun () -> Row_acc.create_counted (Relation.src_count s))
            (fun scratch lo hi ->
              run_rows scratch lo hi;
              true);
          (Counted_pairs.of_rows_unchecked rows, use_matrix)))

(* Guard checkpoints (counts flavour): entry/pre-MM budgets degrade the
   heavy step to the combinatorial merge; a cost-honesty checkpoint
   re-plans a Partitioned decision whose est_seconds was injected.
   There is no chunked |OUT| checkpoint here because plan_counts'
   decision is insensitive to est_out (d2 is pinned), so only the
   mm-cost component of an injection can mislead it. *)
let run_counts ?cancel ?tile ~g ~prep ~domains ~strategy ~memo ~phases
    ~matrix_cell_cap ~r ~s plan =
  let module Guard = Jp_adaptive.Guard in
  let plan, strategy, cap =
    match g with
    | None -> (plan, strategy, matrix_cell_cap)
    | Some g ->
      let cap =
        match (Guard.config g).Guard.budget.Guard.max_cells with
        | Some limit -> min matrix_cell_cap (limit / 3)
        | None -> matrix_cell_cap
      in
      let strategy =
        match Guard.check_budget g ~cells:0 with
        | Guard.Degrade ->
          Guard.note_degrade g;
          Combinatorial
        | Guard.Continue | Guard.Replan -> strategy
      in
      let plan =
        match plan.Optimizer.decision with
        | Optimizer.Partitioned { d1; d2 }
          when strategy = Matrix && Guard.can_replan g ->
          let honest =
            Optimizer.estimate_cost_prepared ~domains ~kind:Jp_matrix.Cost.Count
              ~counts_mode:true (Lazy.force prep)
              (Optimizer.Partitioned { d1; d2 })
          in
          (match
             Guard.check_estimate g ~est:plan.Optimizer.est_seconds
               ~observed:honest
           with
          | Guard.Replan ->
            Obs.phase phases "replan" (fun () ->
                Guard.note_replan g;
                Optimizer.plan_counts_prepared ~domains
                  ~est_out:(Estimator.sampled ~r ~s ())
                  (Lazy.force prep) ())
          | Guard.Continue | Guard.Degrade -> plan)
        | _ -> plan
      in
      (plan, strategy, cap)
  in
  let result =
    match (plan.Optimizer.decision, strategy) with
    | Optimizer.Wcoj, _ | _, Combinatorial ->
      Obs.phase phases "wcoj" (fun () ->
          Jp_wcoj.Expand.project_counts ~domains ?cancel ~r ~s ())
    | Optimizer.Partitioned { d1; d2 = _ }, Matrix ->
      (* Same per-tile checkpoint rule as the boolean guarded path: only
         the calling domain may touch the guard. *)
      let checkpoint =
        if domains <= 1 then Option.map (fun g () -> note_budget g) g else None
      in
      let result, used_matrix =
        counted_partitioned ?cancel ?tile ?checkpoint ~phases ~domains ~memo ~r
          ~s ~d1 ~cap ()
      in
      (match g with
      | Some g when not used_matrix -> Guard.note_degrade g
      | _ -> ());
      result
  in
  (result, plan)

let project_counts ?(domains = 1) ?(strategy = Matrix) ?plan ?guard ?cancel
    ?memo ?tile ?(matrix_cell_cap = 200_000_000) ~r ~s () =
  let memo = Option.value memo ~default:no_memo in
  Cancel.check_opt cancel;
  fst
    (with_plan ~span:"two_path.project_counts" ~label:"two_path.counts" ~memo
       ~plan ~guard
       ~planner:(fun est_out mm_cost_scale prep ->
         Optimizer.plan_counts_prepared ~domains ?est_out ?mm_cost_scale prep ())
       ~count:Counted_pairs.count ~r ~s
       (run_counts ?cancel ?tile ~domains ~strategy ~memo ~matrix_cell_cap ~r ~s))
