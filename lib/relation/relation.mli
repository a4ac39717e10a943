(** Binary relations over dictionary-encoded integer values.

    A relation R(x,y) is stored as adjacency in both directions — for every
    x the strictly increasing array of its y's, and for every y the strictly
    increasing array of its x's — which is exactly the "indexed over every
    variable order" requirement for worst-case optimal join processing
    (Section 5, "Indexing relations").  Construction deduplicates tuples and
    costs O(|R| log |R|).

    Value ids live in [\[0, src_count)] and [\[0, dst_count)]; dictionary
    encoding from external values is the caller's concern (the workload
    generators and the CLI own it). *)

type t

val of_edges : ?src_count:int -> ?dst_count:int -> (int * int) array -> t
(** [of_edges edges] builds the relation, deduplicating tuples.  The id
    spaces default to [1 + max id seen] and may be widened explicitly with
    [src_count]/[dst_count] (useful when some ids have no tuples). *)

val of_flat : ?src_count:int -> ?dst_count:int -> int array -> t
(** Like {!of_edges} but from a flat [|s0; d0; s1; d1; ...|] buffer, the
    layout the generators produce; the array is not modified. *)

val of_sets : ?dst_count:int -> int array array -> t
(** [of_sets sets] views a set family as the relation {set id, element}:
    tuple (i, e) for every [e] in [sets.(i)].  Sets need not be sorted and
    may contain duplicates. *)

val of_adjacency : dst_count:int -> int array array -> t
(** Trusted constructor: [adj.(x)] must already be strictly increasing;
    only the reverse index is built.  O(|R|). *)

val size : t -> int
(** Number of (distinct) tuples. *)

val src_count : t -> int

val dst_count : t -> int

val deg_src : t -> int -> int
(** [deg_src r a] is |σ{_ x=a}R|. *)

val deg_dst : t -> int -> int
(** [deg_dst r b] is |σ{_ y=b}R|. *)

val adj_src : t -> int -> int array
(** [adj_src r a] is the strictly increasing array of y with (a,y) ∈ R.
    The array is shared with the index — callers must not mutate it. *)

val adj_dst : t -> int -> int array
(** [adj_dst r b] is the strictly increasing array of x with (x,b) ∈ R;
    the inverted list L[b] of Section 4.  Shared, do not mutate. *)

val mem : t -> int -> int -> bool

val iter : (int -> int -> unit) -> t -> unit
(** Iterates tuples in (x, y) lexicographic order. *)

val to_edges : t -> (int * int) array

val transpose : t -> t
(** Swaps the roles of x and y — O(1), shares the indexes. *)

val filter : t -> (int -> int -> bool) -> t
(** [filter r keep] is the sub-relation of tuples with [keep x y]. *)

val restrict_src : t -> (int -> bool) -> t
(** Sub-relation keeping only tuples whose x satisfies the predicate;
    cheaper than {!filter} (rows are shared wholesale). *)

val semijoin_dst : t -> (int -> bool) -> t
(** Sub-relation keeping only tuples whose y satisfies the predicate. *)

val join_size_on_dst : t list -> int
(** |OUT{_ ⋈}| of the star join of the given relations on their y column:
    Σ{_ b} Π{_ i} deg{_ dst}(Rᵢ, b).  With two relations this is the full
    2-path join size used throughout Section 5. *)

val active_dst : t list -> bool array
(** [active_dst rs].(b) is true iff b has at least one tuple in {e every}
    relation — the "tuples that contribute to the join result"
    preprocessing filter of Section 3. *)

val equal : t -> t -> bool
(** Same tuple sets and same declared id spaces. *)

val fingerprint : t -> int
(** Structural hash over the declared id spaces and every tuple, suitable
    as a cache key: [equal a b] implies [fingerprint a = fingerprint b].
    O(|R|) on the first call, memoized afterwards.  This is sound because
    relations are immutable once constructed — but note that {!adj_src} /
    {!adj_dst} return arrays {e shared} with the index, so a caller that
    (wrongly) mutated one would silently invalidate every fingerprint-keyed
    cache entry; invalidation by re-fingerprinting after mutation cannot
    work.  Compute fingerprints once at load and treat relations as frozen
    (the dynamic-view library rebuilds relations instead of mutating). *)

val pp : Format.formatter -> t -> unit
(** Debug printer: cardinalities plus the first few tuples. *)
