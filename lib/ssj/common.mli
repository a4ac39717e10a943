(** Shared plumbing for the set-similarity algorithms.

    A set family is a relation {set id, element id} ({!Relation.of_sets});
    the SSJ result is the set of unordered pairs (i, j), i < j, of distinct
    sets whose intersection has size ≥ c.  All algorithms return it as
    {!Pairs.t} keyed by the smaller id. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs

val upper_pairs : ?keep:(int -> int -> bool) -> Counted_pairs.t -> c:int -> Pairs.t
(** Pairs (i, j) with i < j and multiplicity ≥ c, optionally filtered by
    [keep i j]; the canonical way to turn a counted self-join into the SSJ
    result. *)

val iter_c_subsets : int array -> c:int -> (int list -> unit) -> unit
(** [iter_c_subsets elems ~c f] calls [f] once per size-[c] subset of the
    strictly increasing [elems], as an increasing list.  The number of
    calls is C(|elems|, c) — callers are responsible for only passing
    {e light} sets (that is SizeAware's whole point). *)

val overlap : Relation.t -> int -> int -> int
(** Exact |set a ∩ set b| by sorted-merge — the verification primitive
    SizeAware needs for ordered enumeration. *)

val binom_capped : int -> int -> cap:int -> int
(** C(n, k) saturating at [cap] (cost estimation without overflow). *)
