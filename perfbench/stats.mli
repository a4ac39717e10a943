(** Order statistics and latency arithmetic for the benchmark's reports.

    Percentiles are nearest-rank over the raw sample, never interpolated,
    so a reported value is always one that was measured. *)

val percentile : float array -> float -> float
(** [percentile xs p] is the nearest-rank [p]-th percentile ([0 < p <=
    100]) of [xs]: the value of rank [ceil (p/100 * n)] in ascending
    order.  [xs] is not modified.  Raises [Invalid_argument] on an empty
    sample. *)

val median : float array -> float
(** [percentile xs 50.]. *)

type tail = {
  value : float;  (** the tail sample *)
  pct : float;  (** its percentile rank, [100 * (n - beyond) / n] *)
  beyond : int;  (** samples strictly above it in rank order *)
  samples : int;  (** sample size [n] *)
}

val min_beyond : int
(** 10: a tail percentile must leave at least this many samples beyond
    it, so one outlier cannot set it alone. *)

val tail : float array -> tail
(** The highest percentile with at least {!min_beyond} samples beyond
    it: rank [n - 11] (0-based) of the ascending sample.  A sample of at
    most {!min_beyond} values has no such percentile; its maximum is
    returned with [beyond] = [n - 1].  Raises [Invalid_argument] on an
    empty sample. *)

val latency_from_due : due:float -> submitted:float -> queued_s:float ->
  ran_s:float -> float
(** Open-loop latency of one query, measured from when it was {e due}
    rather than from when the load generator got round to submitting it:
    [(submitted - due) + queued_s + ran_s].  A generator that runs late
    would otherwise hide its own lateness from the latency it reports.
    Negative lateness (clock jitter at the due instant) counts as 0. *)
