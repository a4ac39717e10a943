(** Query engine: shape recognition + dispatch.

    The paper's future-work direction is a planner that "decomposes the
    join into multiple subqueries and evaluates in the optimal way".  This
    engine implements that program:

    - queries of whole-query star shape — every atom shares exactly one
      join variable, all other variables projected — are routed directly
      to the MMJoin star algorithm ({!Joinproj.Star}), covering the
      2-path query as k = 2;
    - every other acyclic query goes through the decomposition planner
      ({!Planner}): embedded 2-path / k-star fragments are carved out,
      cost-gated, dispatched to the MM engines and stitched back into the
      Yannakakis semijoin program;
    - cyclic queries are rejected.

    Atoms may bind the join variable in either position (the engine
    transposes relations as needed — transposition is O(1), both
    adjacency directions are always materialized). *)

type catalog = Yannakakis.catalog

type plan =
  | Star_mm of { k : int }  (** whole-query star: MMJoin with k atoms *)
  | Planned of Planner.t  (** decomposition plan (possibly pure Yannakakis) *)

val plan_of :
  ?domains:int ->
  ?policy:Planner.policy ->
  ?catalog:catalog ->
  Cq.t ->
  (plan, string) result
(** The route {!run} would take; errors on cyclic queries.  [catalog]
    feeds the planner's cost gate (see {!Planner.plan}); under
    [Never_mm] even whole-query stars plan as pure Yannakakis. *)

val describe : plan -> string
(** One line, e.g. ["star query (k=3) via MMJoin"]. *)

val explain : plan -> string
(** Multi-line plan tree (see {!Planner.explain}); newline-terminated. *)

val run :
  ?domains:int ->
  ?policy:Planner.policy ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Jp_util.Cancel.t ->
  ?cache:Jp_cache.t ->
  catalog ->
  Cq.t ->
  (Jp_relation.Tuples.t, string) result
(** Evaluates the query.  Head tuples come in head-variable order.
    [guard]/[cancel]/[cache] thread into the MM fragment engines and the
    stitching phases; absent, they leave the same results, the same work
    counters, and end-to-end times within perfbench's bound.
    Errors on cyclic queries, unknown relations and empty heads (boolean
    queries are answered through {!boolean}). *)

val boolean :
  ?domains:int ->
  ?policy:Planner.policy ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Jp_util.Cancel.t ->
  ?cache:Jp_cache.t ->
  catalog ->
  Cq.t ->
  (bool, string) result
(** Satisfiability of the query body (the head is ignored): true iff the
    join is non-empty.  Runs through the planner (a boolean head is never
    whole-query star shaped). *)
