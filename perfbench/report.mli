(** The benchmark's result line.

    Every run ends its standard output with one JSON object:
    [{"correct": b, "attempted": n, "failed": n, "metrics": {name:
    {"value": v, "unit": u}, ...}}].  Metric values keep every digit
    they were measured with. *)

type metric = { name : string; value : float; unit_ : string }

type t = {
  correct : bool;  (** every checked answer matched its reference *)
  attempted : int;  (** queries issued in the measured window *)
  failed : int;  (** queries that ended in a typed error or a wrong answer *)
  metrics : metric list;  (** in print order *)
}

val to_json : t -> Jp_obs.Json.t

val to_line : t -> string
(** Single-line JSON rendering (no trailing newline). *)

val of_line : string -> (t, string) result
(** Parses a line written by {!to_line}. *)

val equal : t -> t -> bool
(** Field-wise equality (metrics compared as ordered lists, values
    exactly). *)
