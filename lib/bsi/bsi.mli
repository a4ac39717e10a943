(** Boolean set intersection with batching (Sections 3.3 and 7.5).

    A workload of queries Q{_ab}() = R(a,y), S(b,y) arrives at B queries
    per time unit.  Instead of answering each with an O(N) scan, batches
    of C queries are grouped into T(x,z) and answered at once as
    Q{_batch}(x,z) = R(x,y), S(z,y), T(x,z): the batch filters R and S
    down to the mentioned sets, one 2-path join-project (Algorithm 1, or
    the combinatorial expansion for the Non-MM comparator) computes every
    intersection flag, and T probes the result.

    {!simulate} replays the arrival process against the real execution
    times, reproducing the average-delay-vs-batch-size curves of
    Figures 6b–6d. *)

module Relation = Jp_relation.Relation

type strategy =
  | Mm  (** Algorithm 1 on the filtered relations *)
  | Combinatorial  (** worst-case-optimal expansion (Non-MMJoin) *)

val answer_batch :
  ?domains:int ->
  ?strategy:strategy ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Jp_util.Cancel.t ->
  ?cache:Jp_cache.t ->
  r:Relation.t ->
  s:Relation.t ->
  (int * int) array ->
  bool array
(** [answer_batch ~r ~s queries].(i) tells whether the two sets of query
    [i] share at least one element.  [guard] supervises the per-batch
    join-project under [Mm] (see {!Joinproj.Two_path.project}); the
    [Combinatorial] comparator is already the safe path and ignores it.

    With [cache] (and [Mm]), the batch is answered from the Section-5.3
    amortization artifact instead: one {e full-relation} heavy partition
    and boolean product, built once and cached under the (r, s)
    fingerprints and thresholds, short-circuits heavy-heavy queries;
    the rest fall back to {!answer_one} merge scans.  Answers are the
    same as on the uncached path ([guard] is then moot: there is no
    per-batch join to supervise).  The cancel token is polled once
    per 1024 queries. *)

val answer_one : r:Relation.t -> s:Relation.t -> int -> int -> bool
(** Single-query merge-scan reference (the per-request baseline of
    Example 5; also the test oracle). *)

type stats = {
  batch_size : int;
  batches : int;
  avg_delay : float;  (** mean (answer time − arrival time), seconds *)
  max_delay : float;
  avg_processing : float;  (** mean wall-clock seconds to answer a batch *)
  units_needed : float;
      (** processing units required to keep up: avg processing time divided
          by the batch inter-arrival period C/B *)
}

val optimal_batch_size : n:int -> rate:float -> int
(** Proposition 2's batch size C = (B·N)^(3/5) minimizing average latency
    under the ω = 2 analysis; at least 1. *)

val predicted_latency : n:int -> rate:float -> batch_size:int -> float
(** The Section 3.3 latency model C/B + N/C^(2/3): abstract units (one
    set-element operation per time unit), so only the curve's shape and
    minimizer are meaningful — used to sanity-check the measured curves,
    not as a wall-clock prediction. *)

val simulate :
  ?domains:int ->
  ?strategy:strategy ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Jp_util.Cancel.t ->
  ?cache:Jp_cache.t ->
  r:Relation.t ->
  s:Relation.t ->
  queries:(int * int) array ->
  rate:float ->
  batch_size:int ->
  unit ->
  stats
(** Replays [queries] arriving at [rate] per second (a
    {!Jp_workload.Arrivals.Fixed_rate} schedule — the same generator the
    open-loop serving harness uses), dispatching every [batch_size] of
    them to {!answer_batch} (whose real wall-clock time is measured),
    with no queueing between batches (the paper provisions enough
    parallel units; {!stats.units_needed} reports how many). *)
