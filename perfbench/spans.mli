(** Benchmark-side spans for the traced run.

    The benchmark times the calls it makes into each layer's public
    functions and records one span per call here; it never reads spans
    from inside the program.  Spans nest per domain (a span opened
    inside another on the same domain is its child), carry the index of
    the query they belong to as their trace id, and stay in memory until
    the end of the run, when they are written out as a Chrome trace and
    summarised as a per-layer self-time table.  Safe to record from
    several domains at once.

    [Jp_obs.span] and its exports are not used for this because the
    traced run also enables [Jp_obs] for its work counters, so the
    engines' own spans land in the same recorder: the batch workloads
    call [Jp_obs.reset] every round to keep that recorder's memory flat,
    which would drop the benchmark's spans too, and the self-time table
    would mix the engines' internal spans with the benchmark's layer
    calls. *)

type t

val create : unit -> t

val span : t -> tid:int -> string -> (unit -> 'a) -> 'a * float
(** [span t ~tid name f] runs [f], records it as span [name] of query
    [tid] and returns its result with its elapsed wall seconds.  If [f]
    raises, the span is still recorded and the exception re-raised. *)

val count : t -> int
(** Spans recorded so far. *)

type row = {
  name : string;
  calls : int;
  total_s : float;  (** summed wall time *)
  self_s : float;  (** summed wall time minus that of child spans *)
}

val self_times : t -> row list
(** One row per span name, by decreasing self time. *)

val render_self_times : t -> string
(** {!self_times} as an aligned text table, with each row's share of
    the total self time. *)

val chrome_trace : t -> Jp_obs.Json.t
(** Chrome trace-event document: one complete (["X"]) event per span,
    microsecond timestamps relative to the first span, [tid] = recording
    domain, [args.trace_id] = query index.  Loads in [chrome://tracing]
    and Perfetto. *)
