(** The pinned machine model and the machine-speed probe.

    The optimizer's cost model normally calibrates itself from live
    timings, so its plans (and every work counter downstream of them)
    can change from run to run.  The benchmark instead loads a
    checked-in constants file ([perfbench/machine.json]) with
    {!Jp_matrix.Cost.set_machine} before any query: plans then depend
    only on code, data and seed. *)

val of_json : Jp_obs.Json.t -> (Jp_matrix.Cost.machine, string) result
(** Reads the fields [ts], [tm], [ti], [count_word], [bool_word] (seconds)
    and [cores] of a constants object; other fields are ignored. *)

val load : string -> (Jp_matrix.Cost.machine, string) result
(** Reads and parses a constants file. *)

val probe : unit -> float
(** Wall seconds of a fixed integer loop (about 0.1 s on a 2020s x86
    core).  Taken before and after each run and printed next to the
    results, it tells a slow machine apart from a slow program.  It is
    deliberately not a gated metric. *)

val peak_rss_mb : unit -> float
(** Peak resident set of this process in MiB ([VmHWM] from
    [/proc/self/status]); where that file is missing, the OCaml heap's
    high-water mark. *)
