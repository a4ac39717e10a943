(** Order-independent checksums of full query results.

    A result is reduced to its cardinality plus the wrapping sum of a
    mixed hash of every tuple: equal sets give equal checksums whatever
    order an engine emits them in, and a single wrong, missing or extra
    tuple changes the sum (with overwhelming probability) even when
    |OUT| happens to match. *)

type t = { count : int; sum : int }

val empty : t

val equal : t -> t -> bool

val add_tuple : t -> int array -> t
(** Fold one tuple in. *)

val of_pairs : Jp_relation.Pairs.t -> t

val of_tuples : Jp_relation.Tuples.t -> t

val of_pair_list : (int * int) list -> t
(** The same checksum as {!of_pairs} over an explicit pair list (which
    must be duplicate-free). *)

val to_string : t -> string
