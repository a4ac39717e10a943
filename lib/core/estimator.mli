(** Output-size estimation for Q̈(x,z) = R(x,y), S(z,y) (Section 5).

    The paper sandwiches the projected output size:
    max(|dom(x)|, (|OUT{_⋈}|/N)²) ≤ |OUT| ≤ min(|dom(x)|·|dom(z)|, |OUT{_⋈}|)
    and estimates |OUT| as the geometric mean of the two bounds.  All
    quantities are computable in linear time from the relation indexes. *)

module Relation = Jp_relation.Relation

val join_size : r:Relation.t -> s:Relation.t -> int
(** |OUT{_⋈}| = Σ{_y} deg{_R}(y)·deg{_S}(y), the full 2-path join size. *)

val estimate : r:Relation.t -> s:Relation.t -> int
(** Geometric-mean estimate of |π{_xz}(R ⋈ S)|, clamped to the bounds. *)

val bounds : r:Relation.t -> s:Relation.t -> int * int
(** The (lower, upper) sandwich used by {!estimate}. *)

val sandwich : join_size:int -> dom_x:int -> dom_z:int -> n:int -> int * int
(** {!bounds} from precomputed inputs: [join_size] = |OUT{_⋈}|,
    [dom_x]/[dom_z] the active x/z counts and [n] = max(|R|, |S|).  The
    optimizer's prepared statistics feed it without re-scanning the
    relations. *)

val geometric_mean : int * int -> int
(** The estimate {!estimate} derives from a sandwich: the geometric mean
    of the bounds, clamped to them. *)

val sampled : ?seed:int -> ?sample:int -> r:Relation.t -> s:Relation.t -> unit -> int
(** Sampling refinement (the better join-project estimators the paper's
    future-work section calls for): expands a uniform sample of [sample]
    (default 64) x values exactly through a {!Jp_wcoj.Row_acc} and
    extrapolates Σ|row| to the full domain (a value drawn twice counts
    twice).  Unbiased, O(sample · avg expansion) time, and clamped to
    {!bounds}. *)
