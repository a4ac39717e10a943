(** Output-sensitive decomposition planner for acyclic conjunctive
    queries.

    The paper's future-work direction — a planner that "decomposes the
    join into multiple subqueries and evaluates in the optimal way" —
    implemented over the GYO join tree: carve out the sub-joins whose
    join variable is projected away (embedded 2-path and k-star shapes),
    dispatch each to the output-sensitive MM engines
    ({!Joinproj.Two_path} / {!Joinproj.Star}) when Algorithm 3's
    calibrated cost model predicts a win, and stitch the fragment outputs
    back into the remaining Yannakakis semijoin program as derived bags.

    {b Eligibility.}  A body variable [y] names a carvable fragment iff

    - [y] is not a head variable (so the existential over [y] is local),
    - [y] occurs in at least two atoms,
    - every atom containing [y] is Var–Var with distinct variables and
      exactly one side equal to [y],
    - the opposite ("out") variables are pairwise distinct.

    The fragment is then {e all} atoms containing [y]; replacing them with
    π{_out-vars}(⋈ atoms) is equivalence-preserving, and contracting the
    corresponding join-tree subtree shows the carved query stays acyclic.
    Overlapping candidates are claimed greedily in first-occurrence order;
    a candidate whose atoms are already claimed is dropped.

    Execution threads the full context — [?guard], [?cancel], [?cache] —
    into the fragment engines and the stitching phases.  Absent, they
    leave the same results, the same work counters, and end-to-end times
    within perfbench's bound. *)

module Relation = Jp_relation.Relation
module Cancel = Jp_util.Cancel
module Fragment = Joinproj.Fragment

type policy =
  | Cost_gate
      (** dispatch a fragment to MM only when {!Joinproj.Fragment}'s cost
          gate predicts the partitioned plan wins (requires a catalog at
          plan time; without one no fragment is carved) *)
  | Always_mm  (** force every eligible fragment through the MM engines *)
  | Never_mm
      (** forced pure Yannakakis — the ABL-CQ foil; candidates are still
          reported, none is carved *)

type part = {
  atom : int;  (** index into the query body *)
  relation : string;
  out_var : string;  (** the fragment's output variable from this atom *)
  transposed : bool;
      (** the atom binds the join variable on the source side, so the
          relation is transposed before dispatch (engines expect the join
          variable on the destination side) *)
}

type fragment = {
  join_var : string;  (** the projected-away join variable *)
  parts : part list;  (** >= 2, in body order *)
  mm : bool;  (** dispatched to the MM engines under the plan's policy *)
  gate : Fragment.gate option;
      (** cost-gate verdict; [None] when planned without a catalog or a
          part's relation is unknown *)
}

type node =
  | Scan of { atom : int; relation : string }
      (** an uncarved atom, loaded as a bag *)
  | Mm of fragment  (** a carved fragment, evaluated output-sensitively *)
  | Stitch of { head : string list; children : node list }
      (** Yannakakis semijoin program over the children's bags *)

type t
(** A plan: the root is always a [Stitch] whose children appear in body
    order (a fragment sits at its first atom's position). *)

val plan :
  ?domains:int ->
  ?policy:policy ->
  ?catalog:Yannakakis.catalog ->
  Cq.t ->
  (t, string) result
(** Errors iff the query is cyclic.  [catalog] feeds the cost gate
    (fragment relations are resolved and Algorithm 3 runs per candidate);
    without it, fragments are recognized structurally but [Cost_gate]
    carves none.  The gate only runs under [Cost_gate] — the forced
    policies must not pay for a verdict they ignore — so their
    candidates carry [gate = None].  The gate prices plans with the
    machine model of {!Jp_matrix.Cost.machine}.  Default policy is
    [Cost_gate]. *)

val query : t -> Cq.t

val root : t -> node

val candidates : t -> fragment list
(** Every structurally eligible fragment, carved or not, in
    first-occurrence order of the join variable. *)

val fragments : t -> fragment list
(** The carved ([mm = true]) subset of {!candidates}. *)

val describe : t -> string
(** One line: ["acyclic query via Yannakakis"] when nothing is carved,
    otherwise a fragment/scan census. *)

val explain : t -> string
(** Multi-line plan tree: the stitch root, one line per fragment (shape,
    join variable, atoms, cost-gate estimates) and per scan. *)

val run :
  ?domains:int ->
  ?policy:policy ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  ?cache:Jp_cache.t ->
  Yannakakis.catalog ->
  Cq.t ->
  (Jp_relation.Tuples.t, string) result
(** Plan, evaluate the carved fragments through
    {!Joinproj.Two_path.project} / {!Joinproj.Star.project} (threading
    [guard]/[cancel], and — for 2-path fragments — the cache's
    {!Jp_cache.two_path_memo} hooks), then stitch with
    {!Yannakakis.run_bags}.  Head tuples come in head-variable order.
    Errors on cyclic queries, unknown relations and empty heads (use
    {!boolean}).  Absent [guard]/[cancel]/[cache], the results and work
    counters are the plain path's and end-to-end times stay within
    perfbench's bound. *)

val boolean :
  ?domains:int ->
  ?policy:policy ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  ?cache:Jp_cache.t ->
  Yannakakis.catalog ->
  Cq.t ->
  (bool, string) result
(** Satisfiability of the query body (the head is ignored): true iff the
    join is non-empty.  Carved fragments are evaluated just as in
    {!run}. *)
