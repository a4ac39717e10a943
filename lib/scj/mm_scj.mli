(** Set containment via the counted join-project (Section 4, "SCJ").

    a ⊆ b  ⟺  |a ∩ b| = |a|, so one counted self-join of the family
    answers every containment at once.  This wins exactly when the
    join-project output is close to the SCJ result (the paper's dense
    datasets) and parallelizes like any MMJoin. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs

val join :
  ?domains:int ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Jp_util.Cancel.t ->
  ?cache:Jp_cache.t ->
  Relation.t ->
  Pairs.t
(** Directed containment pairs (a, b): set a ⊆ set b, a ≠ b.  [guard]
    supervises the underlying counted join-project
    (see {!Joinproj.Two_path.project_counts}); [cache] serves its
    prepared statistics and heavy count product from {!Jp_cache}.  Like
    [guard]/[cancel], an absent [cache] gives the same results, the same
    work counters, and end-to-end times within perfbench's bound. *)
