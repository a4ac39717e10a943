(** The per-row accumulator every engine deduplicates output rows with.

    Section 6's dedup vector, made density-adaptive.  An output row (the
    distinct z ids of one x, optionally with witness counts) is built by
    handing the accumulator whole lists of ids.  A sparse row is
    deduplicated with a stamp vector over the id domain (no clearing
    between rows, no hash table, no upfront |OUT| reservation) and
    radix-sorted when finished.  Once a row holds about one distinct id
    per 62-bit word of the domain it {e spills} to a bitset over the
    domain, and is read off in ascending order by one scan of the words,
    with no sort; the spill point depends only on the domain's width.
    This is the density switch of Huang & Chen's density-optimized
    join-project, applied per row.

    One accumulator is a worker's scratch: it is reused across all the
    rows that worker builds, and is not safe to share between domains.
    Each per-id loop runs inside this module, so callers make one call
    per list, never one per id.

    The accumulator also tallies its work: ids presented and ids
    written.  {!record} publishes the tally to the [light.probes] and
    [dedup.*] counters of {!Jp_obs}; a caller that does not call it
    (an estimate, a view) leaves the counters untouched. *)

type t

val create : int -> t
(** [create n] is a boolean accumulator over ids [0 .. n-1]. *)

val create_counted : int -> t
(** [create_counted n] also keeps a multiplicity per id, for
    {!scan_counted}, {!scan_weighted} and {!finish_counted}. *)

val start : t -> unit
(** Starts a new, empty row, dropping any unfinished one. *)

val scan : t -> int array -> unit
(** Adds every id of the list to the current row. *)

val scan_counted : t -> int array -> unit
(** Adds every id of the list, counting one witness per occurrence.
    Needs a {!create_counted} accumulator. *)

val scan_weighted : t -> int array -> int array -> unit
(** [scan_weighted t ids ks] adds [ids.(l)] with [ks.(l)] witnesses for
    every [l] where [ks.(l) > 0]: a row of a count product whose columns
    are mapped to ids by [ids].  Needs a {!create_counted} accumulator. *)

val distinct : t -> int
(** Number of distinct ids in the current row so far. *)

val finish : t -> int array
(** The current row's distinct ids, ascending.  Leaves the accumulator
    ready for {!start}. *)

val finish_mapped : t -> Jp_util.Bitset.t -> int array -> int array
(** [finish_mapped t bits map] adds [map.(l)] for every set position [l]
    of [bits] and finishes the row, as {!finish}.  [map] must be
    ascending: a row whose only contribution is [bits] is then written
    straight from them, with no dedup.  The heavy product row of the
    boolean 2-path, whose columns index the heavy z values. *)

val finish_counted : t -> int array * int array
(** {!finish} plus each id's multiplicity, position for position. *)

val record : t -> unit
(** Adds the work since the last [record] to [light.probes] (ids
    presented from lists), [dedup.stamp_misses] (ids written to rows)
    and [dedup.stamp_hits] (all ids presented, product rows included,
    minus those written), when recording is on, and zeroes the tally. *)
