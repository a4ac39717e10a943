(** MM-eligibility gate for planner-carved join-project fragments.

    The decomposition planner ([Jp_query.Planner]) walks the GYO join tree
    of an acyclic conjunctive query and carves out sub-joins whose join
    variable is projected away — embedded 2-path shapes and k-star shapes.
    {!gate_two_path} / {!gate_star} run Algorithm 3's calibrated cost
    model over the fragment's relations and report whether the matrix
    plan is predicted to beat the safe worst-case-optimal path (the cost
    regimes of "Output-sensitive Conjunctive Query Evaluation", Deep, Hu
    & Koutris 2024, reduce to exactly this per-fragment decision for
    acyclic queries).  The planner executes a carved fragment through
    {!Two_path.project} / {!Star.project} directly.

    A star gate has no dedicated cost model: it is approximated by the
    2-path gate over the fragment's two largest relations (both oriented
    with the join variable on the destination side), which is the pair
    that dominates the heavy residue's matrix dimensions. *)

module Relation = Jp_relation.Relation

type gate = {
  mm : bool;  (** Algorithm 3 picked a partitioned (matrix) plan *)
  est_mm_s : float;
      (** predicted cost of the best partitioned plan; [infinity] when the
          descent never left the worst-case-optimal plan *)
  est_safe_s : float;  (** predicted cost of the worst-case-optimal plan *)
}

val gate_two_path :
  ?domains:int ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  gate
(** Cost gate for a 2-path fragment π{_xz}(R(x,y) ⋈ S(z,y)): prepares the
    Section-5 degree indexes once and runs the geometric descent of
    {!Optimizer.plan_prepared}.  [mm] iff the chosen decision is
    [Partitioned]. *)

val gate_star :
  ?domains:int ->
  Relation.t array ->
  gate
(** Cost gate for a k-star fragment (k ≥ 2 relations sharing the join
    variable on the destination side), via the 2-path gate over the two
    largest relations. *)
