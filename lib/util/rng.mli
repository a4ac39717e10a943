(** Deterministic pseudo-random number generation (splitmix64).

    Every generator in this repository takes an explicit {!t} so that
    datasets, tests and benchmarks are reproducible run-to-run.  The
    implementation is splitmix64, which has a single 64-bit word of state,
    passes BigCrush, and is cheap enough to use inside tight generation
    loops. *)

type t
(** Mutable generator state. *)

val create : int -> t
(** [create seed] makes a fresh generator from [seed].  Equal seeds yield
    identical streams. *)

val copy : t -> t
(** [copy t] is an independent generator positioned at the same point of the
    stream as [t]. *)

val int : t -> int -> int
(** [int t bound] is uniform in [\[0, bound)].  [bound] must be positive. *)

val float : t -> float -> float
(** [float t bound] is uniform in [\[0, bound)]. *)

val bool : t -> bool
(** Fair coin flip. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)

val split : t -> t
(** [split t] advances [t] and returns a statistically independent child
    generator; used to give each parallel task its own stream. *)
