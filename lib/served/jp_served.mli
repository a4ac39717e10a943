(** The served-workload driver: one seeded query mix, two clients that
    push it through a {!Jp_service}, and one verdict over the answers.

    Query [i] of a run evaluates the identity [ident.(i)] the caller
    supplies, so a repeated identity is a repeated query.  The driver
    neither prints nor exits, and it takes a service the caller created:
    callers keep creation and shutdown outside what they time, and take
    the {!verdict} after {!Jp_service.shutdown}. *)

module Relation = Jp_relation.Relation
module Hist = Jp_metrics.Hist

val sample : seed:int -> int -> Relation.t -> Relation.t array
(** [sample ~seed n r]: [n] sub-relations of [r]; the [d]-th keeps each
    source with a probability drawn from \[0.3, 0.7), all seeded by
    [seed + 7919 * d]. *)

type flavour =
  | Mm
  | Nonmm  (** [Two_path.project ~strategy:Combinatorial] *)
  | Ssj  (** [Mm_ssj.join ~c:2] *)
  | Scj
  | Cq  (** identity [d] runs entry [d mod 4] of a fixed pool of acyclic CQs *)
  | Auto  (** identity [d] runs [Mm], [Nonmm], [Ssj], [Scj], [Cq] by [d mod 5] *)

type t

val create : ?domains:int -> flavour:flavour -> Relation.t array -> t
(** Identity [d] queries [subs.(d)]; every identity's {!expected} answer
    is computed here, once.  [domains] (default 1) goes to every engine. *)

val engine : t -> int -> string
(** The engine identity [d] runs: ["mm"], ["nonmm"], ["ssj"], ["scj"] or ["cq"]. *)

val answer : t -> int -> int
(** Identity [d]'s answer size from a direct, fault-free, cache-free call. *)

val expected : t -> int -> int
(** {!answer} as computed by {!create}. *)

type run = {
  ident : int array;
  reports : int Jp_service.report array;  (** in submission order *)
  makespan_s : float;  (** first submission to last answer *)
}

val closed : ?cache:Jp_cache.t -> t -> Jp_service.t -> int array -> run
(** One query per identity in the array, all in flight at once — or,
    with [cache], each submitted after the previous one resolved, so a
    repeat can hit what its first occurrence published.  Query [i] goes
    in with [~key:i], maps [degraded] to [Jp_adaptive.Guard.safe], and
    with [cache] carries a result binding verified against {!expected}. *)

val open_loop :
  ?cache:Jp_cache.t -> t -> Jp_service.t -> schedule:float array -> int array -> run
(** Like {!closed}, but query [i] is submitted at offset [schedule.(i)]
    by {!Jp_workload.Arrivals.drive}, never waiting for an answer. *)

type verdict = {
  run : run;
  wrong : int;  (** [Ok] answers that differ from {!expected} *)
  completed : int;  (** [Ok] answers, cache hits included *)
  outcomes : (string * Hist.t) list;
      (** [ran_s] per outcome, keyed ["ok"], ["hit"] (an [Ok] from the
          cache) or {!Jp_service.error_to_string}; a count is a tally *)
  queued : Hist.t;  (** [queued_s] of admitted queries (not [Overloaded]/[Shed]) *)
  ran : Hist.t;  (** [ran_s] of admitted queries *)
  e2e : Hist.t;  (** [queued_s + ran_s] of [Ok] answers *)
  goodput : float;  (** [Ok] answers per second of makespan *)
  spawned : int;
  joined : int;  (** the [service.workers_*] counters when taken *)
}

val verdict : t -> run -> verdict

val outcome : verdict -> string -> Hist.t
(** The merged {!field-outcomes} whose key starts with the prefix:
    ["failed"] gathers every [Failed] message. *)
