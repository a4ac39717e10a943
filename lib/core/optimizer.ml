module Relation = Jp_relation.Relation
module Stats = Jp_relation.Stats
module Cost = Jp_matrix.Cost

type decision = Wcoj | Partitioned of { d1 : int; d2 : int }

type plan = {
  decision : decision;
  est_out : int;
  join_size : int;
  est_seconds : float;
}

(* Indexes consulted by the cost loop; built once per planning call in
   O(N + max degree) (Section 5, "Indexing relations"). *)
type indexes = {
  n : int; (* max(|R|, |S|) *)
  join_size : int; (* exact |OUT_⋈| = Σ_y deg_R y · deg_S y *)
  dom_x : int;
  dom_z : int;
  (* y side: keyed by min(deg_R y, deg_S y), since y is light iff that
     minimum is <= d1; the three indexes share one ordering *)
  y_by_min : Stats.t; (* weights: deg_R y * deg_S y = expansion work *)
  y_wr : Stats.t; (* weights: deg_R y — mass of R tuples on light y *)
  y_ws : Stats.t; (* weights: deg_S y *)
  x_stats : Stats.t; (* keyed by deg_R x, weights: expansion work of x *)
  z_stats : Stats.t;
}

(* Keyed by deg(a) over [rel]'s x side, weighted by the work to expand a:
   Σ over b in adj(a) of [other_deg.(b)], the other relation's degree. *)
let endpoint_stats rel other_deg =
  let nx = Relation.src_count rel in
  let deg = Array.make nx 0 and work = Array.make nx 0 in
  for a = 0 to nx - 1 do
    let row = Relation.adj_src rel a in
    let acc = ref 0 in
    for i = 0 to Array.length row - 1 do
      acc := !acc + other_deg.(row.(i))
    done;
    deg.(a) <- Array.length row;
    work.(a) <- !acc
  done;
  Stats.of_degrees ~weights:work deg

let build_indexes ~r ~s =
  let ny = max (Relation.dst_count r) (Relation.dst_count s) in
  let min_deg = Array.make ny 0 and prod = Array.make ny 0 in
  let wr = Array.make ny 0 and ws = Array.make ny 0 in
  let join_size = ref 0 in
  for y = 0 to ny - 1 do
    let dr = if y < Relation.dst_count r then Relation.deg_dst r y else 0 in
    let ds = if y < Relation.dst_count s then Relation.deg_dst s y else 0 in
    min_deg.(y) <- (if dr < ds then dr else ds);
    prod.(y) <- dr * ds;
    wr.(y) <- dr;
    ws.(y) <- ds;
    join_size := !join_size + (dr * ds)
  done;
  let y_by_min = Stats.of_degrees ~weights:prod min_deg in
  let x_stats = endpoint_stats r ws and z_stats = endpoint_stats s wr in
  {
    n = max (Relation.size r) (Relation.size s);
    join_size = !join_size;
    dom_x = Stats.active_count x_stats;
    dom_z = Stats.active_count z_stats;
    y_by_min;
    y_wr = Stats.with_weights y_by_min wr;
    y_ws = Stats.with_weights y_by_min ws;
    x_stats;
    z_stats;
  }

(* Heavy matrix dimensions for thresholds (d1, d2).  [v] is exact;
   [u]/[w] bound the rows/columns by the Δ₂ heavy-value count (infinity
   in counts mode, where every endpoint adjacent to a heavy y joins the
   matrix) and by the number of endpoints adjacent to any heavy y. *)
let tuples_on_heavy_y idx stats ~d1 =
  Stats.weight_le stats (Stats.max_degree idx.y_by_min) - Stats.weight_le stats d1

let heavy_dims ~counts_mode idx ~d1 ~d2 =
  let v = Stats.count_gt idx.y_by_min d1 in
  let r_touched = min idx.dom_x (tuples_on_heavy_y idx idx.y_wr ~d1) in
  let s_touched = min idx.dom_z (tuples_on_heavy_y idx idx.y_ws ~d1) in
  if counts_mode then (r_touched, v, s_touched)
  else
    ( min (Stats.count_gt idx.x_stats d2) r_touched,
      v,
      min (Stats.count_gt idx.z_stats d2) s_touched )

(* In counts mode there are no R-/S- sub-joins: the combinatorial side
   only expands light-y tuples. *)
let light_seconds ~counts_mode (m : Cost.machine) idx ~d1 ~d2 =
  let light_y_work = Stats.weight_le idx.y_by_min d1 in
  let endpoint_work =
    if counts_mode then 0
    else Stats.weight_le idx.x_stats d2 + Stats.weight_le idx.z_stats d2
  in
  (m.ti *. float_of_int (light_y_work + endpoint_work))
  +. (m.tm *. float_of_int idx.dom_x)

let heavy_seconds (m : Cost.machine) kind ~domains (u, v, w) =
  if u = 0 || v = 0 || w = 0 then 0.0
  else Cost.mhat m kind ~u ~v ~w ~cores:domains

let wcoj_seconds (m : Cost.machine) ~join_size ~dom_x =
  (m.ti *. float_of_int join_size) +. (m.tm *. float_of_int dom_x)

(* Geometric descent on d1 (Algorithm 3): stop as soon as the cost stops
   improving, return the previous candidate. *)
let descend ~cost ~start =
  let shrink d = max 1 (min (d - 1) (int_of_float (0.95 *. float_of_int d))) in
  let rec go ~best_d ~best_cost d =
    let c = cost d in
    if c > best_cost then (best_d, best_cost)
    else if d = 1 then (d, c)
    else go ~best_d:d ~best_cost:c (shrink d)
  in
  let c0 = cost start in
  if start = 1 then (start, c0) else go ~best_d:start ~best_cost:c0 (shrink start)

let d2_for idx ~est_out d1 =
  (* N·Δ₁ = |OUT|·Δ₂ (line 9 of Algorithm 3) *)
  max 1 (min idx.n (idx.n * d1 / max 1 est_out))

(* Reusable planning state: the degree indexes and the exact join size
   for one (r, s) pair.  Building this is the O(N) part of planning;
   every plan/estimate_cost call on a [prepared] value afterwards only
   runs the geometric descent over index probes.  The guard layer
   prepares once per invocation so mid-query checkpoints can afford
   speculative re-planning.  Immutable once built, so a cached value is
   safe to share between domains. *)
type prepared = indexes

let prepare ~r ~s = Jp_obs.span "optimizer.prepare" (fun () -> build_indexes ~r ~s)

let estimated_out idx =
  Estimator.geometric_mean
    (Estimator.sandwich ~join_size:idx.join_size ~dom_x:idx.dom_x
       ~dom_z:idx.dom_z ~n:idx.n)

(* Footprint estimate for cache accounting, one word per array cell.  The
   three y indexes share one ordering (ids, degrees, degree and degree²
   prefixes) and add a weight prefix each: 7 arrays over the active y
   values.  The x and z indexes own all 5 of theirs. *)
let prepared_bytes idx =
  let active = Stats.active_count in
  (8 * ((7 * active idx.y_by_min) + (5 * (active idx.x_stats + active idx.z_stats))))
  + 128

let generic_plan ?machine ?(domains = 1) ~kind ?(wcoj_factor = 20)
    ?est_out ?(mm_cost_scale = 1.0) ~counts_mode ~tie_d2 idx () =
  let m = match machine with Some m -> m | None -> Cost.machine () in
  let join_size = idx.join_size in
  let est_out =
    match est_out with Some e -> max 1 e | None -> estimated_out idx
  in
  let wcoj_cost = wcoj_seconds m ~join_size ~dom_x:idx.dom_x in
  if join_size <= wcoj_factor * idx.n then
    { decision = Wcoj; est_out; join_size; est_seconds = wcoj_cost }
  else begin
    let cost d1 =
      let d2 = tie_d2 idx ~est_out d1 in
      light_seconds ~counts_mode m idx ~d1 ~d2
      +. mm_cost_scale
         *. heavy_seconds m kind ~domains (heavy_dims ~counts_mode idx ~d1 ~d2)
    in
    let start = max 1 (Stats.max_degree idx.y_by_min) in
    let d1, best_cost = descend ~cost ~start in
    let d2 = tie_d2 idx ~est_out d1 in
    if best_cost >= wcoj_cost || d1 >= start then
      { decision = Wcoj; est_out; join_size; est_seconds = wcoj_cost }
    else
      {
        decision = Partitioned { d1; d2 };
        est_out;
        join_size;
        est_seconds = best_cost;
      }
  end

(* d2 pinned to the maximal degree for counts mode: only the join variable
   is partitioned, every x/z counts as light. *)
let max_d2 idx ~est_out:_ _d1 = idx.n

let plan_prepared ?machine ?domains ?(kind = Cost.Boolean) ?wcoj_factor
    ?est_out ?mm_cost_scale prep () =
  Jp_obs.span "optimizer.plan" (fun () ->
      generic_plan ?machine ?domains ~kind ?wcoj_factor ?est_out ?mm_cost_scale
        ~counts_mode:false ~tie_d2:d2_for prep ())

let plan_counts_prepared ?machine ?domains ?wcoj_factor ?est_out ?mm_cost_scale
    prep () =
  Jp_obs.span "optimizer.plan_counts" (fun () ->
      generic_plan ?machine ?domains ~kind:Cost.Count ?wcoj_factor ?est_out
        ?mm_cost_scale ~counts_mode:true ~tie_d2:max_d2 prep ())

let plan ?machine ?domains ?kind ?wcoj_factor ?est_out ?mm_cost_scale ~r ~s () =
  plan_prepared ?machine ?domains ?kind ?wcoj_factor ?est_out ?mm_cost_scale
    (prepare ~r ~s) ()

let plan_counts ?machine ?domains ?wcoj_factor ?est_out ?mm_cost_scale ~r ~s () =
  plan_counts_prepared ?machine ?domains ?wcoj_factor ?est_out ?mm_cost_scale
    (prepare ~r ~s) ()

let estimate_cost_prepared ?machine ?(domains = 1) ?(kind = Cost.Boolean)
    ?(counts_mode = false) idx decision =
  let m = match machine with Some m -> m | None -> Cost.machine () in
  match decision with
  | Wcoj -> wcoj_seconds m ~join_size:idx.join_size ~dom_x:idx.dom_x
  | Partitioned { d1; d2 } ->
    light_seconds ~counts_mode m idx ~d1 ~d2
    +. heavy_seconds m kind ~domains (heavy_dims ~counts_mode idx ~d1 ~d2)

let estimate_cost ?machine ?domains ?kind ?counts_mode ~r ~s decision =
  estimate_cost_prepared ?machine ?domains ?kind ?counts_mode (prepare ~r ~s)
    decision

let theoretical_thresholds ~n ~out =
  if n < 1 || out < 1 then invalid_arg "Optimizer.theoretical_thresholds";
  let nf = float_of_int n and outf = float_of_int out in
  let clamp d = max 1 (min n (int_of_float (Float.round d))) in
  if out <= n then
    (clamp (outf ** (1.0 /. 3.0)), clamp (nf /. (outf ** (2.0 /. 3.0))))
  else begin
    let d = (2.0 *. nf *. nf /. (nf +. outf)) ** (1.0 /. 3.0) in
    (clamp d, clamp d)
  end

let decision_to_string = function
  | Wcoj -> "wcoj"
  | Partitioned { d1; d2 } -> Printf.sprintf "mm(d1=%d,d2=%d)" d1 d2

let explain p =
  Printf.sprintf "plan=%s est_out=%d join_size=%d est=%.4fs"
    (decision_to_string p.decision)
    p.est_out p.join_size p.est_seconds
