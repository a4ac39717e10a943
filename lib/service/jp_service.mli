(** A resilient multi-domain query service.

    The engines in this repository are libraries: call them wrong, or on
    a hostile input, and the caller eats the exception and the latency.
    This module wraps them in the server loop a deployment would need —
    a fixed pool of worker domains pulling queries off a {e bounded}
    submission queue — and makes the failure behaviour a contract:

    - {b Admission control}: a full queue (or a stopping service)
      rejects the query immediately with {!Overloaded} instead of
      queueing unboundedly.
    - {b Deadlines}: each query carries a {!Jp_util.Cancel} token with
      an optional wall-clock deadline; engines poll it at their existing
      checkpoint granularity, so an expired query frees its domain
      promptly and reports {!Deadline_exceeded}.
    - {b Retry and degradation}: transient faults (injected by
      {!Jp_chaos} or real) are retried with exponential backoff; when
      retries run out, one final attempt runs with [~degraded:true],
      which the work closure should map to the safe non-matrix path
      (e.g. [Jp_adaptive.Guard.safe]).  A query therefore returns
      exactly the fault-free result or a typed {!error} — never a
      wrong answer.

    - {b Overload control} (opt-in via {!type:config}[.controller]):
      under saturating open-loop traffic the bounded queue alone fills
      with work that expires before a worker reaches it.  The
      {!Overload} controller sheds at admission when the estimated
      queue wait exceeds the query's deadline ({!Shed}), fails
      still-queued tickets fast at dequeue once their deadline has
      passed ({!Expired_in_queue}, zero attempts), and under sustained
      overload browns out: every attempt runs the degraded safe plan
      (which also keeps results out of the cache).  Controller absent ⇒
      same results, same work counters, end-to-end times within
      perfbench's bound.
    - {b Caching}: a query submitted with a {!Jp_cache.binding} consults
      the cache {e before} dispatch — a hit resolves immediately, with no
      queue slot or worker attempt — and publishes its result after
      verification.  Only a clean success publishes: a cancelled, faulted
      or degraded attempt never installs an entry, so the cache can only
      ever serve the fault-free answer.

    Everything the service does is visible through the [service.*]
    counters and [service.query]/[service.attempt] spans of {!Jp_obs}
    when recording is on.  Every span and marker carries the query's
    [trace_id] (see {!type:report}), and the service additionally feeds
    {!Jp_metrics}: one [service.queued_seconds]/[service.ran_seconds]
    histogram observation and one gauge snapshot per executed query,
    plus the [service.queue_depth] and [service.inflight] gauges —
    aggregate latency and load, not just per-ticket numbers. *)

module Cancel = Jp_util.Cancel

(** The overload controller (shed / brownout / dequeue expiry); armed by
    {!type:config}[.controller].  See {!Overload} for the policy. *)
module Overload = Overload

type error =
  | Overloaded  (** rejected at admission: queue full or shutting down *)
  | Shed
      (** rejected at admission by the overload controller: the estimated
          queue wait already exceeded this query's deadline *)
  | Expired_in_queue
      (** failed fast at dequeue: the deadline passed while queued, so no
          engine attempt ran ([attempts = 0]; controller only) *)
  | Deadline_exceeded  (** the query's deadline passed before it finished *)
  | Cancelled  (** client cancelled (or the service shut down under it) *)
  | Failed of string  (** retries and degradation both exhausted *)

val error_to_string : error -> string

type config = {
  workers : int;  (** worker domains (clamped to available cores, min 1) *)
  queue_capacity : int;  (** admission bound; 0 rejects everything *)
  max_retries : int;  (** transient-fault retries before degrading *)
  backoff_s : float;  (** base backoff; attempt [n] waits [backoff_s * 2^n] *)
  default_deadline_s : float option;
      (** deadline for queries submitted without one *)
  chaos : Jp_chaos.config option;  (** arm fault injection on every attempt *)
  controller : Overload.config option;
      (** arm the overload controller.  [None] (the default) behaves as
          the uncontrolled service: same results, same work counters,
          end-to-end times within perfbench's bound, and no {!Shed} or
          {!Expired_in_queue} outcomes, no estimator, no brownout. *)
}

val default : config
(** 1 worker, capacity 16, 2 retries, 5 ms base backoff, no default
    deadline, no chaos, no overload controller. *)

type 'a report = {
  outcome : ('a, error) result;
  attempts : int;  (** work-closure invocations, including the degraded one *)
  retries : int;  (** re-runs caused by transient faults *)
  degraded : bool;  (** the returned value came from the degraded attempt *)
  cache_hit : bool;  (** served from the cache: [attempts = 0], no worker ran *)
  queued_s : float;  (** admission to first execution *)
  ran_s : float;  (** execution (all attempts and backoffs) *)
  trace_id : int;
      (** per-service query id, assigned in submission order; the same id
          stamps every [Jp_obs] span and instant of this query's
          lifecycle ([service.query], each [service.attempt], the
          [service.outcome] / [service.cache_hit] / [service.rejected]
          markers), correlating a Chrome-trace export per query *)
}

type 'a ticket
(** Handle for one submitted query. *)

type t

val create : config -> t
(** Spawn the worker domains.  Every service must be {!shutdown}. *)

val submit :
  t ->
  ?key:int ->
  ?deadline_s:float ->
  ?cached:'a Jp_cache.binding ->
  (cancel:Cancel.t -> attempt:int -> degraded:bool -> 'a) ->
  'a ticket
(** Submit a query.  The work closure must thread [cancel] into the
    engines it calls ([?cancel:] everywhere) and honour [degraded] by
    switching to the safe non-matrix path; [attempt] is 0-based.  [key]
    identifies the query to the chaos planner — pass a stable workload
    index for reproducible fault injection (default 0).  A query
    rejected at admission yields a ticket already resolved to
    [Error Overloaded].

    [cached] names the query's result slot in a {!Jp_cache}: a resident
    entry resolves the ticket immediately ([cache_hit = true], counted
    as accepted + completed); otherwise the query runs normally and a
    clean, non-degraded [Ok] outcome is offered back through
    {!Jp_cache.binding_publish} (verify-then-publish; admission is
    cost-based, see {!Jp_cache.offer}). *)

val await : 'a ticket -> 'a report
(** Block until the query resolves.  Safe from any domain; idempotent. *)

val cancel : 'a ticket -> unit
(** Request cancellation.  The query resolves to [Error Cancelled] at
    its next checkpoint (unless it already finished). *)

val shutdown : t -> unit
(** Stop admitting, wake and join every worker (in-flight queries run to
    completion), then resolve still-queued tickets to [Error Cancelled].
    Idempotent. *)
