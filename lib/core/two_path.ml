module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Vec = Jp_util.Vec
module Bitset = Jp_util.Bitset
module Obs = Jp_obs
module Cancel = Jp_util.Cancel

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
   guard-checkpoint granularity), reusing one merge scratch per worker
   across sub-chunks — stamps are row ids, distinct across chunks, so
   stale stamps cannot collide.  An absent token is never polled. *)
let poll_rows = 4096

(* Measures one engine phase for the plan-vs-actual record; [f] may open
   its own spans, so this deliberately does not open one.  Top-level (and
   handed the accumulator explicitly) to stay polymorphic in the phase's
   result type. *)
let phase phases name f =
  if Obs.recording () then begin
    let t0 = Jp_util.Timer.now () in
    let x = f () in
    phases := (name, Jp_util.Timer.now () -. t0) :: !phases;
    x
  end
  else f ()

(* ------------------------------------------------------------------ *)
(* Boolean (dedup-only) evaluation                                     *)
(* ------------------------------------------------------------------ *)

(* Heavy adjacency matrices of R+ and S+ (Section 3.1): rows/columns are
   the pruned heavy value lists of the partition. *)
let heavy_matrices ~domains ~r ~s (p : Partition.t) =
  Obs.span "two_path.heavy_mm" (fun () ->
      let m1 =
        Boolmat.create ~rows:(Array.length p.heavy_x)
          ~cols:(Array.length p.heavy_y)
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
        Boolmat.create ~rows:(Array.length p.heavy_y)
          ~cols:(Array.length p.heavy_z)
      in
      Array.iteri
        (fun j b ->
          if b < Relation.dst_count s then
            Array.iter
              (fun c ->
                let l = p.z_index.(c) in
                if l >= 0 then Boolmat.set m2 j l)
              (Relation.adj_dst s b))
        p.heavy_y;
      Boolmat.mul ~domains m1 m2)

(* Public alias: the BSI fast path builds (and caches) the same product
   over a full-relation partition, answering heavy-heavy point queries
   straight from its bits. *)
let heavy_product ?(domains = 1) ~r ~s p = heavy_matrices ~domains ~r ~s p

(* Tiled sibling of [heavy_matrices]: the operands are handed to
   [Jp_tile] as lazy adjacency sources, so the full M₁/M₂ are never
   materialized — tiles are built on demand and stream through the
   bounded resident store.  Deterministic in (r, s, thresholds,
   tile_bits), independent of domains and budget, and bit-equal to
   [heavy_matrices]. *)
let heavy_matrices_tiled ?cancel ?checkpoint ~tile ~memo ~domains ~r ~s
    (p : Partition.t) =
  Obs.span "two_path.heavy_mm" (fun () ->
      let u = Array.length p.heavy_x
      and v = Array.length p.heavy_y
      and w = Array.length p.heavy_z in
      let src_a =
        Jp_tile.Source.of_adjacency ~rows:u ~cols:v (fun i ->
            let bits = Vec.create () in
            Array.iter
              (fun b ->
                let j = p.y_index.(b) in
                if j >= 0 then Vec.push bits j)
              (Relation.adj_src r p.heavy_x.(i));
            Vec.to_array bits)
      in
      let src_b =
        Jp_tile.Source.of_adjacency ~rows:v ~cols:w (fun j ->
            let bits = Vec.create () in
            let y = p.heavy_y.(j) in
            if y < Relation.dst_count s then
              Array.iter
                (fun c ->
                  let l = p.z_index.(c) in
                  if l >= 0 then Vec.push bits l)
                (Relation.adj_dst s y);
            Vec.to_array bits)
      in
      Jp_tile.mul ~domains ?cancel ?checkpoint
        ~memo:
          (memo.memo_bool_tile ~d1:p.Partition.d1 ~d2:p.Partition.d2
             ~tile_bits:tile.Jp_tile.tile_bits)
        tile src_a src_b)

(* The heavy boolean product behind the tiling gate: with a [?tile]
   config present and the cost model agreeing (operands big enough, or
   bigger than the configured resident budget), stream through
   [Jp_tile] with per-tile memo keys; otherwise the flat kernel behind
   the whole-product memo hook. *)
let heavy_bool_product ?cancel ?checkpoint ~tile ~memo ~domains ~r ~s
    (p : Partition.t) =
  let tiled =
    match tile with
    | None -> None
    | Some cfg ->
      if
        cfg.Jp_tile.force
        || Jp_matrix.Cost.should_tile ?budget_bytes:cfg.Jp_tile.budget_bytes
             Jp_matrix.Cost.Boolean ~u:(Array.length p.heavy_x)
             ~v:(Array.length p.heavy_y) ~w:(Array.length p.heavy_z) ()
      then Some cfg
      else None
  in
  match tiled with
  | Some cfg ->
    heavy_matrices_tiled ?cancel ?checkpoint ~tile:cfg ~memo ~domains ~r ~s p
  | None ->
    memo.memo_bool_product ~d1:p.Partition.d1 ~d2:p.Partition.d2 (fun () ->
        heavy_matrices ~domains ~r ~s p)

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

(* The per-worker row accumulator shared by both merges, kept across
   that worker's chunks.  A row starts sparse: ids are deduplicated with
   [stamps] (stamp values are row ids, distinct across chunks, so stale
   stamps never collide) and collected in [buf], to be radix-sorted at
   the end.  Once it holds [spill_at] distinct ids it spills: what [buf]
   holds is set in [acc], a bitset over dom(z), and later ids go straight
   to [acc]; the row is then written by one ascending [Bitset.drain],
   which also leaves [acc] empty for the next row.  [spill_at] is about
   one id per word of [acc], the density from which a scan of the words
   costs less than sorting the row, and depends only on |dom(z)|. *)
type row_acc = {
  stamps : int array;
  buf : Vec.t;
  acc : Bitset.t;
  spill_at : int;
  mutable stamp : int;
  mutable spilled : bool;
}

let row_acc ~s =
  let nz = Relation.src_count s in
  let acc = Bitset.create nz in
  {
    stamps = Array.make nz (-1);
    buf = Vec.create ~capacity:256 ();
    acc;
    spill_at = max 32 (Bitset.word_count acc);
    stamp = -1;
    spilled = false;
  }

let start_row t a =
  t.stamp <- a;
  t.spilled <- false;
  Vec.clear t.buf

(* Marks [c] as seen in the current row; [true] on its first sight. *)
let fresh t c =
  Array.unsafe_get t.stamps c <> t.stamp
  && begin
    Array.unsafe_set t.stamps c t.stamp;
    true
  end

(* Moves the row's ids so far into [acc]; later ids go straight there. *)
let spill t =
  t.spilled <- true;
  Vec.iter (Bitset.set t.acc) t.buf

(* Collects [c], known to be new to the current row. *)
let collect t c =
  if t.spilled then Bitset.set t.acc c
  else begin
    Vec.push t.buf c;
    if Vec.length t.buf >= t.spill_at then spill t
  end

(* The current row's distinct ids, ascending. *)
let finish_row t =
  if t.spilled then Bitset.drain t.acc
  else begin
    Vec.sort_dedup t.buf;
    Vec.to_array t.buf
  end

(* A row whose only contribution is product row [i]: [heavy_z] is
   ascending, so the row's positions mapped through it already are the
   sorted, distinct row. *)
let product_row m i heavy_z =
  let row = Bitset.to_array (Boolmat.row m i) in
  Array.iteri (fun k l -> Array.unsafe_set row k (Array.unsafe_get heavy_z l)) row;
  row

(* The merged per-x loop over rows [lo, hi): light contributions from
   R- |><| S and R |><| S-, heavy contributions from the matrix product
   (or from a heavy-restricted expansion for the combinatorial strategy),
   all deduplicated in one row accumulator; a spilled row skips the
   stamp check.  Returns the number of pairs produced — the
   observed-output statistic guard checkpoints extrapolate from. *)
let merge_range ~scratch:t ~r ~s ~(p : Partition.t) ~heavy ~s_light_of_heavy_y
    ~rows lo hi =
  let obs = Obs.recording () in
  let light_scans = ref 0 and presented = ref 0 and produced = ref 0 in
  let scan zs =
    let n = Array.length zs in
    if obs then begin
      light_scans := !light_scans + n;
      presented := !presented + n
    end;
    let j = ref 0 in
    while !j < n && not t.spilled do
      let c = Array.unsafe_get zs !j in
      if fresh t c then collect t c;
      incr j
    done;
    if !j < n then Bitset.set_all t.acc zs ~pos:!j
  in
  for a = lo to hi - 1 do
    start_row t a;
    let a_light = Relation.deg_src r a <= p.d2 in
    Array.iter
      (fun b ->
        if a_light || Partition.is_light_y p b then
          scan (Relation.adj_dst s b)
        else
          (* heavy a, heavy b: only the S- tuples (light z) are
             joined here; heavy z is the matrix part's job *)
          scan s_light_of_heavy_y.(b))
      (Relation.adj_src r a);
    let row =
      match heavy with
      | Product m ->
        let i = p.x_index.(a) in
        if i < 0 then finish_row t
        else begin
          let nnz = Boolmat.row_nnz m i in
          if obs then presented := !presented + nnz;
          if Vec.length t.buf = 0 then product_row m i p.heavy_z
          else begin
            (* Spill before the product if it would take the row past
               the spill point; otherwise no id of it can. *)
            if (not t.spilled) && Vec.length t.buf + nnz >= t.spill_at then
              spill t;
            if t.spilled then
              Bitset.scatter_into ~dst:t.acc (Boolmat.row m i) p.heavy_z
            else
              Boolmat.iter_row m i (fun l ->
                  let c = p.heavy_z.(l) in
                  if fresh t c then collect t c);
            finish_row t
          end
        end
      | Expand s_heavy_of_heavy_y ->
        if not a_light then
          Array.iter
            (fun b ->
              if not (Partition.is_light_y p b) then
                scan s_heavy_of_heavy_y.(b))
            (Relation.adj_src r a);
        finish_row t
    in
    produced := !produced + Array.length row;
    rows.(a) <- row
  done;
  if obs then begin
    Obs.add Obs.C.light_probes !light_scans;
    Obs.add Obs.C.stamp_misses !produced;
    Obs.add Obs.C.stamp_hits (!presented - !produced)
  end;
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

(* The statistics the initial plan sees: a guard's injected
   misestimation, or the optimizer's own when there is no guard. *)
let injected_stats g prep =
  match g with
  | None -> (None, None)
  | Some g ->
    let inj = Jp_adaptive.Guard.inject g in
    ( Some (Jp_adaptive.Inject.out inj (Optimizer.estimated_out prep)),
      Some inj.Jp_adaptive.Inject.mm_factor )

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
    | Some g ->
      let cfg = Guard.config g in
      ( max 64 (min cfg.Guard.check_every (nx / 8)),
        max 64 (min cfg.Guard.probe_rows (nx / 4)) )
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
      phase phases "wcoj" (fun () ->
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
    phase phases "replan" (fun () ->
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
      phase phases "partition" (fun () -> Partition.make ?cancel ~r ~s ~d1 ~d2 ())
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
          (phase phases "heavy-mm" (fun () ->
               heavy_bool_product ?cancel ?checkpoint ~tile ~memo ~domains ~r
                 ~s p))
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
    phase phases "light-merge" (fun () ->
        Obs.span "two_path.light_merge" (fun () ->
            let s_light_of_heavy_y = filter_heavy_s ~r ~s ~light:true p in
            let heavy =
              match product with
              | Some m -> Product m
              | None -> Expand (filter_heavy_s ~r ~s ~light:false p)
            in
            Jp_parallel.Pool.split_ranges ~domains ?cancel ~chunk:check_chunk ~lo
              ~hi:nx
              ~alloc:(fun () -> row_acc ~s)
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

let project ?(domains = 1) ?(strategy = Matrix) ?plan ?guard ?cancel ?memo
    ?tile ~r ~s () =
  let module Guard = Jp_adaptive.Guard in
  let memo = match memo with Some m -> m | None -> no_memo in
  Obs.span "two_path.project" (fun () ->
      let t0 = Jp_util.Timer.now () in
      let phases = ref [] in
      let g = Option.map Guard.start guard in
      (* Built at most once per invocation: the initial plan forces it,
         and every later checkpoint re-plan reuses it. *)
      let prep = lazy (memo.memo_prepared (fun () -> Optimizer.prepare ~r ~s)) in
      let plan =
        match plan with
        | Some p -> p
        | None ->
          phase phases "plan" (fun () ->
              let prep = Lazy.force prep in
              let est_out, mm_cost_scale = injected_stats g prep in
              Optimizer.plan_prepared ~domains ~kind:Jp_matrix.Cost.Boolean
                ?est_out ?mm_cost_scale prep ())
      in
      let result =
        run_project ?cancel ?tile ~g ~prep ~domains ~strategy ~memo ~phases ~r
          ~s plan
      in
      if Obs.recording () then begin
        let replanned, degraded =
          match g with
          | Some g -> (Guard.replanned g, Guard.degraded g)
          | None -> (false, false)
        in
        Obs.record_plan ~label:"two_path" ~replanned ~degraded
          ~decision:(Optimizer.decision_to_string plan.decision)
          ~est_out:plan.est_out ~join_size:plan.join_size
          ~est_seconds:plan.est_seconds ~actual_out:(Pairs.count result)
          ~actual_seconds:(Jp_util.Timer.now () -. t0)
          ~phases:(List.rev !phases) ()
      end;
      result)

let project_with_plan_info ?(domains = 1) ?(strategy = Matrix) ?guard ?cancel
    ?tile ~r ~s () =
  let plan = Optimizer.plan ~domains ~kind:Jp_matrix.Cost.Boolean ~r ~s () in
  (project ~domains ~strategy ~plan ?guard ?cancel ?tile ~r ~s (), plan)

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
  let ny = max (Relation.dst_count r) (Relation.dst_count s) in
  let deg_ry y = if y < Relation.dst_count r then Relation.deg_dst r y else 0 in
  let deg_sy y = if y < Relation.dst_count s then Relation.deg_dst s y else 0 in
  let light_y = Array.init ny (fun y -> deg_ry y <= d1 || deg_sy y <= d1) in
  (* Matrix dimensions: endpoints adjacent to at least one heavy y. *)
  let heavy_y = Vec.create () in
  Array.iteri (fun y light -> if not light then Vec.push heavy_y y) light_y;
  let heavy_y = Vec.to_array heavy_y in
  let touched rel =
    let seen = Array.make (Relation.src_count rel) false in
    Array.iter
      (fun b ->
        if b < Relation.dst_count rel then
          Array.iter (fun a -> seen.(a) <- true) (Relation.adj_dst rel b))
      heavy_y;
    let ids = Vec.create () in
    Array.iteri (fun a hit -> if hit then Vec.push ids a) seen;
    Vec.to_array ids
  in
  let hx = touched r and hz = touched s in
  let u = Array.length hx and v = Array.length heavy_y and w = Array.length hz in
  let fits = u * v <= cap && v * w <= cap && u * w <= cap in
  let use_matrix = v > 0 && fits in
  let x_index = Array.make (Relation.src_count r) (-1) in
  Array.iteri (fun i a -> x_index.(a) <- i) hx;
  let tiled =
    match tile with
    | None -> None
    | Some cfg ->
      if
        cfg.Jp_tile.force
        || Jp_matrix.Cost.should_tile ?budget_bytes:cfg.Jp_tile.budget_bytes
             Jp_matrix.Cost.Count ~u ~v ~w ()
      then Some cfg
      else None
  in
  let product =
    if not use_matrix then None
    else
      phase phases "heavy-count-mm" (fun () ->
          (* The count product A·Bᵀ over bit-packed rows (62
             multiply-adds per word op): A rows are x's heavy-y bitsets,
             B rows are z's heavy-y bitsets. *)
          let heavy_row_fn () =
            let y_index = Array.make ny (-1) in
            Array.iteri (fun j b -> y_index.(b) <- j) heavy_y;
            fun rel a ->
              let bits = Jp_util.Vec.create () in
              Array.iter
                (fun b ->
                  if b < ny then begin
                    let j = y_index.(b) in
                    if j >= 0 then Jp_util.Vec.push bits j
                  end)
                (Relation.adj_src rel a);
              Jp_util.Vec.to_array bits
          in
          match tiled with
          | Some cfg ->
            (* Tiled: operands stream through [Jp_tile]'s bounded store
               and partial products memoize at tile granularity. *)
            let heavy_row = heavy_row_fn () in
            let src_a =
              Jp_tile.Source.of_adjacency ~rows:u ~cols:v (fun i ->
                  heavy_row r hx.(i))
            in
            let src_b =
              Jp_tile.Source.of_adjacency ~rows:w ~cols:v (fun l ->
                  heavy_row s hz.(l))
            in
            Some
              (Jp_tile.count_product ~domains ?cancel ?checkpoint
                 ~memo:(memo.memo_count_tile ~d1 ~tile_bits:cfg.Jp_tile.tile_bits)
                 cfg src_a src_b)
          | None ->
            Some
              (memo.memo_count_product ~d1 (fun () ->
                   (* The whole build sits inside the memo thunk: a hit
                      skips it. *)
                   let heavy_row = heavy_row_fn () in
                   let m1 =
                     Boolmat.of_adjacency ~rows:u ~cols:v (fun i ->
                         heavy_row r hx.(i))
                   in
                   let m2 =
                     Boolmat.of_adjacency ~rows:w ~cols:v (fun l ->
                         heavy_row s hz.(l))
                   in
                   Boolmat.count_product ~domains m1 m2)))
  in
  let treat_all_light = product = None in
  let nx = Relation.src_count r in
  let rows = Array.make nx ([||], [||]) in
  Cancel.check_opt cancel;
  phase phases "count-merge" (fun () ->
      Obs.span "two_path.count_merge" (fun () ->
          let nz = Relation.src_count s in
          let count_scratch () = (row_acc ~s, Array.make nz 0) in
          let run_rows (t, counts) lo hi =
            let obs = Obs.recording () in
            let light_scans = ref 0 and presented = ref 0 and misses = ref 0 in
            (* Counts need the stamp check even on a spilled row: it tells
               a first witness from a repeated one. *)
            let bump c k =
              if fresh t c then begin
                Array.unsafe_set counts c k;
                collect t c
              end
              else Array.unsafe_set counts c (Array.unsafe_get counts c + k)
            in
            for a = lo to hi - 1 do
              start_row t a;
              Array.iter
                (fun b ->
                  if treat_all_light || light_y.(b) then begin
                    let zs = Relation.adj_dst s b in
                    if obs then begin
                      light_scans := !light_scans + Array.length zs;
                      presented := !presented + Array.length zs
                    end;
                    Array.iter (fun c -> bump c 1) zs
                  end)
                (Relation.adj_src r a);
              (match product with
              | Some m ->
                let i = x_index.(a) in
                if i >= 0 then
                  Array.iteri
                    (fun l c ->
                      let k = Intmat.get m i l in
                      if k > 0 then begin
                        if obs then Stdlib.incr presented;
                        bump c k
                      end)
                    hz
              | None -> ());
              let zs = finish_row t in
              if obs then misses := !misses + Array.length zs;
              let cs = Array.map (fun c -> counts.(c)) zs in
              rows.(a) <- (zs, cs)
            done;
            if obs then begin
              Obs.add Obs.C.light_probes !light_scans;
              Obs.add Obs.C.stamp_misses !misses;
              Obs.add Obs.C.stamp_hits (!presented - !misses)
            end
          in
          Jp_parallel.Pool.split_ranges ~domains ?cancel ~chunk:poll_rows ~lo:0
            ~hi:nx ~alloc:count_scratch (fun scratch lo hi ->
              run_rows scratch lo hi;
              true);
          (Counted_pairs.of_rows_unchecked rows, use_matrix)))

let project_counts ?(domains = 1) ?(strategy = Matrix) ?plan ?guard ?cancel
    ?memo ?tile ?(matrix_cell_cap = 200_000_000) ~r ~s () =
  let memo = match memo with Some m -> m | None -> no_memo in
  Obs.span "two_path.project_counts" (fun () ->
      let t0 = Jp_util.Timer.now () in
      Cancel.check_opt cancel;
      let phases = ref [] in
      let g = Option.map Jp_adaptive.Guard.start guard in
      let prep = lazy (memo.memo_prepared (fun () -> Optimizer.prepare ~r ~s)) in
      let plan =
        match plan with
        | Some p -> p
        | None ->
          (* plan_counts' thresholds do not depend on est_out (d2 is
             pinned), so only the mm-cost component of a guard's injection
             can mislead it — and the honesty checkpoint below catches
             it. *)
          phase phases "plan" (fun () ->
              let prep = Lazy.force prep in
              let est_out, mm_cost_scale = injected_stats g prep in
              Optimizer.plan_counts_prepared ~domains ?est_out ?mm_cost_scale
                prep ())
      in
      (* Guard checkpoints (counts flavour): entry/pre-MM budgets degrade
         the heavy step to the combinatorial merge; a cost-honesty
         checkpoint re-plans a Partitioned decision whose est_seconds was
         injected.  There is no chunked |OUT| checkpoint here because
         plan_counts' decision is insensitive to est_out. *)
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
                Optimizer.estimate_cost_prepared ~domains
                  ~kind:Jp_matrix.Cost.Count ~counts_mode:true
                  (Lazy.force prep)
                  (Optimizer.Partitioned { d1; d2 })
              in
              (match
                 Guard.check_estimate g ~est:plan.Optimizer.est_seconds
                   ~observed:honest
               with
              | Guard.Replan ->
                phase phases "replan" (fun () ->
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
          phase phases "wcoj" (fun () ->
              Jp_wcoj.Expand.project_counts ~domains ?cancel ~r ~s ())
        | Optimizer.Partitioned { d1; d2 = _ }, Matrix ->
          (* Same per-tile checkpoint rule as the boolean guarded path:
             only the calling domain may touch the guard. *)
          let checkpoint =
            if domains <= 1 then Option.map (fun g () -> note_budget g) g
            else None
          in
          let result, used_matrix =
            counted_partitioned ?cancel ?tile ?checkpoint ~phases ~domains
              ~memo ~r ~s ~d1 ~cap ()
          in
          (match g with
          | Some g when not used_matrix -> Guard.note_degrade g
          | _ -> ());
          result
      in
      if Obs.recording () then begin
        let replanned, degraded =
          match g with
          | Some g -> (Guard.replanned g, Guard.degraded g)
          | None -> (false, false)
        in
        Obs.record_plan ~label:"two_path.counts" ~replanned ~degraded
          ~decision:(Optimizer.decision_to_string plan.Optimizer.decision)
          ~est_out:plan.Optimizer.est_out ~join_size:plan.Optimizer.join_size
          ~est_seconds:plan.Optimizer.est_seconds
          ~actual_out:(Counted_pairs.count result)
          ~actual_seconds:(Jp_util.Timer.now () -. t0)
          ~phases:(List.rev !phases) ()
      end;
      result)
