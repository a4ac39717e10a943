(** Degree-distribution indexes of Section 5.

    The cost-based optimizer (Algorithm 3) needs, for an arbitrary degree
    threshold δ, exact answers to:

    - [count(w_δ)] — how many values of a variable have degree ≤ δ;
    - [sum(y_δ) = Σ_{light b} |L(b)|²] — deduplication effort over light
      y values;
    - [sum(x_δ)] — deduplication effort over light x values;
    - [cdf_x(y_δ)] — how many x's are connected to light y values.

    All are answered in O(log n) from one O(n + max degree) build: value
    ids ordered by degree with a stable counting sort, with prefix sums
    of degree, degree² and an arbitrary weight per value.  Only values of
    nonzero degree participate (the paper's preprocessing removes
    non-contributing tuples first).  Every probe reads a prefix sum at a
    degree boundary, so no answer depends on the order of ids within one
    degree. *)

type t

val of_degrees : ?weights:int array -> int array -> t
(** [of_degrees ~weights deg] builds the index over all ids [v] with
    [deg.(v) > 0], in O([Array.length deg] + max degree) time and
    space.  [weights] (same length) feeds {!weight_le}; it defaults to
    the degrees themselves. *)

val with_weights : t -> int array -> t
(** [with_weights t w] answers like [of_degrees ~weights:w] over the
    degrees [t] was built from, in O(active values): it shares [t]'s
    ordering and degree prefix sums and builds only the weight prefix.
    [w] must have the length of the original degree array. *)

val active_count : t -> int
(** Number of values with nonzero degree. *)

val max_degree : t -> int

val count_le : t -> int -> int
(** [count_le t d] = #{v | 0 < deg v ≤ d}: the index [count(w_δ)]. *)

val count_gt : t -> int -> int
(** Complement of {!count_le} over active values: the number of heavy
    values for threshold [d]. *)

val sum_le : t -> int -> int
(** Σ deg v over active v with deg v ≤ d — [cdf] style mass of light
    values. *)

val sum_sq_le : t -> int -> int
(** Σ (deg v)² over active v with deg v ≤ d — the index [sum(y_δ)]. *)

val weight_le : t -> int -> int
(** Σ weights(v) over active v with deg v ≤ d — the index [cdf_x(y_δ)]
    when [weights] carries the other relation's degrees. *)

val values_le : t -> int -> int array
(** Ids of the active values with degree ≤ d, ascending by degree (ties
    in unspecified order; fresh array). *)

val nth_smallest_degree : t -> int -> int
(** [nth_smallest_degree t k] is the k-th (0-based) smallest active degree;
    used by SizeAware's boundary search. *)
