(** Tiled, memory-bounded heavy-part matrix multiplication.

    The flat {!Jp_matrix.Boolmat} kernels materialize both operand
    matrices in full, which makes the heavy part the system's largest
    single allocation and an all-or-nothing unit for parallelism and
    caching.  This module decomposes the same two products into fixed
    2{^k}×2{^k} bit-packed tiles (MatFast-style block partitioning):

    - {b Scheduling}: output tiles are the work-stealing unit — one
      {!Jp_parallel.Pool} chunk per tile — so load balance no longer
      depends on row skew.
    - {b Memory}: operand tiles are built on demand from a row
      {!Source} and kept in a bounded resident store; when a byte budget
      is set, LANDLORD-style eviction rebuilds cold tiles instead of
      holding both operands resident, so products larger than the budget
      stream instead of OOM-ing.
    - {b Capabilities}: one [Jp_obs] span, one optional cancel poll /
      guard checkpoint and one memo-hook consultation {e per tile} —
      never per word (jp_lint's [hot-poll] cadence).  [tile.*] counters
      track tile builds / store hits / evictions / products and the
      resident footprint's [tile.peak_bytes] high-water mark; the
      footprint itself is the [tile.resident_bytes] gauge.

    Results are bit-equal to the flat kernels for every tile size,
    budget and domain count: boolean tiles OR-blit into the result rows
    at their column offset ({!Jp_util.Bitset.union_into_at}), count
    tiles own disjoint cell blocks, and partial sums over inner tiles
    are exact. *)

module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Cancel = Jp_util.Cancel

type config = private { tile_bits : int; budget_bytes : int option }
(** [tile_bits] is k of the 2{^k}×2{^k} tile shape; [budget_bytes]
    bounds the operand-tile resident set ([None] = unbounded: every
    operand tile stays resident once built). *)

val config : ?tile_bits:int -> ?budget_bytes:int -> unit -> config
(** [tile_bits] (default 9: 512×512 tiles, ≈ 33 KiB of bitset words per
    boolean tile) is clamped to [[4, 20]]. *)

(** Lazy operand views: shape plus a row iterator, so tiles can be
    (re)built on demand without ever materializing the full operand
    matrix. *)
module Source : sig
  type t

  val of_rows : rows:int -> cols:int -> (int -> (int -> unit) -> unit) -> t
  (** [of_rows ~rows ~cols row] views row [i] as ones at the positions
      [row i f] passes to [f] (each in [[0, cols)], order irrelevant; a
      tile's build cost is the number of positions passed).  [row] must
      be pure — it is re-invoked whenever an evicted tile is rebuilt —
      and, with [domains > 1], safe to call from worker domains. *)

  val of_boolmat : Boolmat.t -> t
  (** View an already materialized matrix (tests and benches). *)

  val rows : t -> int

  val cols : t -> int

  val row : t -> int -> (int -> unit) -> unit
  (** [row src i f] calls [f] on each position of row [i]. *)
end

val mul :
  ?domains:int ->
  ?cancel:Cancel.t ->
  ?checkpoint:(unit -> unit) ->
  ?memo:(ti:int -> tj:int -> (unit -> Boolmat.t) -> Boolmat.t) ->
  config ->
  Source.t ->
  Source.t ->
  Boolmat.t
(** [mul cfg a b] is the boolean product [a · b], bit-equal to
    [Boolmat.mul] on the materialized operands.  [cancel] is polled once
    per tile claim (via the pool) and [checkpoint] runs once per output
    tile on the computing domain — callers pass budget checks only when
    that is safe for their guard (single-domain).  [memo ~ti ~tj build]
    may return a previously built output tile for the same operands and
    config instead of running [build] — the [Jp_cache] L2 hook; absent,
    every tile is computed.  Raises [Invalid_argument] naming both
    shapes when the inner dimensions disagree. *)

val count_product :
  ?domains:int ->
  ?cancel:Cancel.t ->
  ?checkpoint:(unit -> unit) ->
  ?memo:(ti:int -> tj:int -> (unit -> Intmat.t) -> Intmat.t) ->
  config ->
  Source.t ->
  Source.t ->
  Intmat.t
(** [count_product cfg a b] with [a : u×v] and [b : w×v] (both over the
    same inner dimension, exactly like [Boolmat.count_product]) is the
    u×w count matrix, bit-equal to the flat kernel: inner-tile partial
    counts are integer sums, so accumulation order cannot change the
    result.  Same capability surface as {!mul}. *)
