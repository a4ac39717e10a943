(** Cooperative cancellation tokens.

    A token carries a cancellation flag and an optional wall-clock
    deadline.  Engines accept one as [?cancel:] and poll it at the same
    granularity as their adaptive-guard checkpoints — once per chunk or
    phase, never per tuple — so cancelling a query (or letting its
    deadline expire) stops the work promptly without locks or signals.
    Without a token the engines' code paths are exactly the untouched
    ones.

    Tokens are thread-safe: worker domains may poll a token that another
    domain cancels.  {!is_cancelled} is the graceful poll (workers stop
    claiming chunks); {!check} raises {!Cancelled} on the coordinating
    domain so the whole invocation unwinds.

    A token also carries a {e poll hook}: a callback run on every poll,
    installed by the chaos layer ([Jp_chaos]) to inject deterministic
    faults at exactly the sites a real cancellation would be noticed.
    The default hook is a no-op and polls stay cheap enough for chunk
    loops. *)

type reason =
  | Deadline  (** the token's deadline passed *)
  | Requested  (** {!cancel} was called *)

exception Cancelled of reason

type t

val create : ?deadline_s:float -> unit -> t
(** Fresh live token.  [deadline_s] is a relative wall-clock budget in
    seconds from now; omitted means no deadline.  Raises
    [Invalid_argument] on a negative deadline ([Some 0.] is legal: the
    first poll cancels). *)

val cancel : t -> unit
(** Request cancellation.  Idempotent; loses against an
    already-recorded deadline expiry. *)

val is_cancelled : t -> bool
(** Poll: runs the hook, then reports whether the token is cancelled
    (recording a deadline expiry as a side effect).  Worker loops use
    this to stop claiming chunks without raising across domains. *)

val check : t -> unit
(** Poll like {!is_cancelled} but raise {!Cancelled} when the token is
    cancelled — the coordinator-side checkpoint. *)

val check_opt : t option -> unit
(** {!check} when a token is present; an absent token is never polled. *)

val reason : t -> reason option
(** [None] while live.  Does not run the hook. *)

val set_hook : t -> (unit -> unit) -> unit
(** Install the poll hook (chaos injection; the callback may raise and
    must be safe to run from any domain).  One hook at a time. *)

val clear_hook : t -> unit
