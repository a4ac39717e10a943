(** Per-x expansion joins with dedup-vector deduplication.

    This is the paper's Section-6 inner loop: for a fixed x value [a],
    union the inverted lists L(b) of its neighbours b, deduplicating the
    row in a {!Row_acc} (a stamp vector that spills to a bitset over
    dom(z) on dense rows) instead of a hash table (no rehashing, no
    upfront |OUT| reservation).  It implements:

    - the projection of the {e full} 2-path join (the WCOJ-then-project
      baseline, and Algorithm 1's fallback when the planner declines the
      matrix plan);
    - restricted expansions, via the [xs]/[keep_y] filters;
    - the counting variant needed by SSJ/SCJ, which accumulates witness
      multiplicities instead of booleans.

    Both variants parallelize over x with one accumulator per worker
    (coordination free, as exploited by Figures 4d/4e), and publish the
    [light.probes] and [dedup.*] counters through {!Row_acc.record}.

    With [?cancel] the expansion polls the token every {!poll_rows} x's
    (per worker) and raises {!Jp_util.Cancel.Cancelled}; without it the
    same chunked loop runs with every poll skipped. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Cancel = Jp_util.Cancel

val poll_rows : int
(** Rows a chunked row loop processes between cancellation polls (4096):
    this expansion's and [Two_path]'s merges, whose guard checkpoints
    run at the same granularity. *)

val project :
  ?domains:int ->
  ?cancel:Cancel.t ->
  ?xs:int array ->
  ?keep_y:(int -> bool) ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Pairs.t
(** [project ~r ~s ()] is π{_xz}(R(x,y) ⋈ S(z,y)) as deduplicated pairs.
    [xs] restricts the driving x values (default: all of dom(x));
    [keep_y] filters join values y.  Rows for x values outside [xs] are
    empty. *)

val project_counts :
  ?domains:int ->
  ?cancel:Cancel.t ->
  ?xs:int array ->
  ?keep_y:(int -> bool) ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Counted_pairs.t
(** Counting variant: multiplicity of (x, z) = number of surviving
    witnesses y. *)
