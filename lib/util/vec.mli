(** Growable array of unboxed [int]s.

    The workhorse buffer for join outputs and adjacency construction: bulk
    push with amortized O(1), in-place sort/dedup, and zero-copy freezing
    into a plain [int array] slice. *)

type t

val create : ?capacity:int -> unit -> t

val length : t -> int

val get : t -> int -> int
(** [get v i] is the [i]-th element; bounds-checked. *)

val set : t -> int -> int -> unit

val push : t -> int -> unit

val push2 : t -> int -> int -> unit
(** [push2 v a b] appends two elements; used for flat pair encoding. *)

val clear : t -> unit
(** Resets length to zero, keeping capacity. *)

val truncate : t -> int -> unit
(** [truncate v n] shrinks the length to [n] (which must be [<= length]).
    Used as a stack-frame pop by tree traversals. *)

val to_array : t -> int array
(** Fresh array copy of the contents. *)

val sort_dedup : t -> unit
(** Sorts ascending and removes duplicates in place, without copying the
    buffer. *)

val iter : (int -> unit) -> t -> unit

val fold : ('a -> int -> 'a) -> 'a -> t -> 'a
