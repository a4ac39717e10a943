(** Fixed-width mutable bitsets over native [int] words.

    Words carry 62 payload bits so that every operation stays on unboxed
    native ints.  Bitsets are the backbone of the boolean matrix product
    (each matrix row is one bitset) and of the EmptyHeaded-like baseline
    engine, where per-word [lor]/[land] provide the 62-way data parallelism
    that plays the role of SIMD in the paper's C++ prototype. *)

type t

val width : t -> int
(** Number of addressable bit positions. *)

val word_count : t -> int
(** Number of backing words; the unit in which per-word operations
    ([union_into], [inter_count], ...) are counted by the observability
    layer's MM word-op counters. *)

val create : int -> t
(** [create n] is an all-zeros bitset of width [n]. *)

val set : t -> int -> unit

val set_all : t -> int array -> pos:int -> unit
(** [set_all t a ~pos] sets every position [a.(pos)], ...,
    [a.(length a - 1)]: the bulk [set] of a row accumulator taking in
    the rest of an inverted list. *)

val unset : t -> int -> unit

val mem : t -> int -> bool

val clear : t -> unit
(** Zeroes every bit, keeping the width. *)

val count : t -> int
(** Population count. *)

val is_empty : t -> bool

val union_into : dst:t -> t -> unit
(** [union_into ~dst src] ORs [src] into [dst].  Widths must match. *)

val union_into_at : dst:t -> int -> t -> unit
(** [union_into_at ~dst off src] ORs [src] into [dst] with its bit 0
    landing at position [off] ([off + width src <= width dst]).  The
    word-offset blit behind the tiled matrix product: a tile row merges
    into the full result row at its column-block offset without
    per-bit iteration. *)

val inter_into : dst:t -> t -> unit
(** [inter_into ~dst src] ANDs [src] into [dst].  Widths must match. *)

val inter_count : t -> t -> int
(** Population count of the intersection, without materializing it. *)

val iter : (int -> unit) -> t -> unit
(** [iter f t] applies [f] to every set position in increasing order. *)

val scatter_into : dst:t -> t -> int array -> unit
(** [scatter_into ~dst src map] sets [map.(l)] in [dst] for every set
    position [l] of [src] ([map] covers [width src]): ORs a matrix row
    whose columns index a subset of [dst]'s domain, such as a heavy
    product row over the heavy z values, into a row over the whole
    domain. *)

val to_array : t -> int array
(** The set positions in increasing order, as an array of exactly
    [count t] elements. *)

val drain : t -> int array
(** [drain t] is [to_array t], and leaves [t] empty.  One scan of the
    words does both, so an accumulator bitset can collect one output
    row, be drained into that row, and be reused for the next. *)

val to_list : t -> int list

val of_sorted_array : int -> int array -> t
(** [of_sorted_array n positions] sets each listed position (positions need
    not actually be sorted; they must be [< n]). *)

val copy : t -> t

val equal : t -> t -> bool
