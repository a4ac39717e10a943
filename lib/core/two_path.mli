(** Algorithm 1: output-sensitive evaluation of
    Q̈(x,z) = R(x,y), S(z,y) — the paper's core contribution.

    The tuple space is split by the degree thresholds of {!Partition}:

    + light sub-joins R⁻ ⋈ S and R ⋈ S⁻ are expanded with the
      worst-case-optimal stamp-vector join (their pre-projection size is
      bounded by N·Δ₁ + |OUT|·Δ₂);
    + the all-heavy residue is evaluated as a matrix product of the
      adjacency matrices of R⁺ and S⁺;
    + the parts are merged with per-x deduplication (a pair can be
      discovered both by a light witness and by the matrix, so the union
      is not disjoint — the merge handles it).  Each row goes through
      {!Jp_wcoj.Row_acc}, the accumulator {!Jp_wcoj.Expand} uses too: a
      sparse row is deduplicated with a stamp vector and radix-sorted, a
      dense one is collected in a bitset over dom(z) and read off in
      ascending order, with no sort.  The counted merge keeps witness
      counts in the same accumulator and adds the count product's row
      to them.

    [Combinatorial] replaces step 2 with the same stamp-vector expansion
    restricted to heavy tuples: that is the paper's {b Non-MMJoin}
    baseline (the Lemma-2-style combinatorial output-sensitive
    algorithm), sharing every other code path with {b MMJoin}.

    {b The heavy product.}  Both kinds build it from the same operand
    rows over a {!Partition}: x → heavy-y positions on the left, and on
    the right heavy y → heavy-z positions (boolean) or z → heavy-y
    positions (counts, whose kernel takes the right operand transposed).
    With [?tile] present the product is tiled: {!Jp_tile} streams it from
    those rows, tiles being the work-stealing, memoization and
    memory-budget unit, and guard checkpoints and cancel polls fire once
    per tile.  Without [?tile] the flat kernel runs on the materialized
    operands.  Results are bit-equal either way.

    All entry points take [?cancel]: a {!Jp_util.Cancel} token polled at
    phase boundaries and once per merge chunk (never per tuple), raising
    {!Jp_util.Cancel.Cancelled} promptly when the token is cancelled or
    its deadline passes.  Every capability is optional in the same way:
    an absent one is a no-op inside the same chunked loops, giving the
    same results and the same work counters. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Cancel = Jp_util.Cancel

type strategy =
  | Matrix  (** heavy part via {!Jp_matrix.Boolmat.mul} / {!Jp_matrix.Intmat.mul} *)
  | Combinatorial  (** heavy part via stamp-vector expansion (Non-MMJoin) *)

(** Memoization hooks, consumed by [Jp_cache] (which sits above this
    library in the dependency graph).  Each hook receives the builder of
    a deterministic, immutable intermediate — the prepared optimizer
    indexes, or a heavy-part matrix product identified by the partition
    thresholds — and may return a previously built value for the same
    (r, s, thresholds) instead of running it.  A memo value is specific
    to the (r, s) pair it was created for; hooks are consulted once per
    phase, never per tuple.  [?memo] absent runs every builder. *)
type memo = {
  memo_prepared : (unit -> Optimizer.prepared) -> Optimizer.prepared;
  memo_bool_product :
    d1:int -> d2:int -> (unit -> Jp_matrix.Boolmat.t) -> Jp_matrix.Boolmat.t;
  memo_count_product :
    d1:int -> (unit -> Jp_matrix.Intmat.t) -> Jp_matrix.Intmat.t;
  memo_bool_tile :
    d1:int ->
    d2:int ->
    tile_bits:int ->
    ti:int ->
    tj:int ->
    (unit -> Jp_matrix.Boolmat.t) ->
    Jp_matrix.Boolmat.t;
      (** Tile-granularity sibling of [memo_bool_product], consulted
          once per output tile when the heavy product runs tiled
          ([?tile] present): tile (ti, tj) of the boolean heavy
          product for thresholds (d1, d2) at the given tile size.  The
          whole-product hook is {e not} consulted on the tiled path —
          partial products cache at tile granularity instead. *)
  memo_count_tile :
    d1:int ->
    tile_bits:int ->
    ti:int ->
    tj:int ->
    (unit -> Jp_matrix.Intmat.t) ->
    Jp_matrix.Intmat.t;
      (** Tile-granularity sibling of [memo_count_product]. *)
}

val heavy_product :
  ?domains:int ->
  r:Relation.t ->
  s:Relation.t ->
  Partition.t ->
  Jp_matrix.Boolmat.t
(** The heavy-part boolean product M{_R⁺}·M{_S⁺} for a partition: rows
    are [heavy_x], columns [heavy_z] (indexes per the partition's
    [x_index]/[z_index]).  Deterministic in (r, s, thresholds) and
    independent of [domains] — which is what makes it cacheable.  Used
    by the BSI fast path to answer heavy-heavy point queries without
    re-running the join. *)

val project :
  ?domains:int ->
  ?strategy:strategy ->
  ?plan:Optimizer.plan ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  ?memo:memo ->
  ?tile:Jp_tile.config ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Pairs.t
(** π{_xz}(R ⋈ S).  Without [plan], Algorithm 3 plans the query first
    (including the possible decision to run the plain worst-case-optimal
    join).

    With [guard], execution is supervised by {!Jp_adaptive.Guard}: the
    initial plan sees the guard's injected misestimation, and runtime
    checkpoints (Wcoj output probe, post-partition pre-MM cost/cells
    check, per-chunk light-merge extrapolation when [domains = 1]) may
    re-plan with observed statistics — switching Wcoj ⇄ Partitioned
    mid-query while keeping rows already produced — or degrade matrix
    plans to the combinatorial heavy part when a budget is exhausted.
    Without [guard] the same driver runs with every checkpoint skipped:
    no guard state, no injected estimate, and a Wcoj plan is a single
    expansion of the whole x domain.

    [tile] tiles the heavy product (see the module description); with a
    [memo], the tiled product consults the tile-granularity hooks
    instead of the whole-product one. *)

val project_counts :
  ?domains:int ->
  ?strategy:strategy ->
  ?plan:Optimizer.plan ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  ?memo:memo ->
  ?tile:Jp_tile.config ->
  ?matrix_cell_cap:int ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Counted_pairs.t
(** Like {!project} but with exact witness multiplicities.  Here only the
    join variable is partitioned (a pair's witnesses may be split between
    the light and heavy parts, so per-pair counts from both sides are
    summed — see DESIGN.md); plans should come from
    {!Optimizer.plan_counts}.  If the count matrices would exceed
    [matrix_cell_cap] cells (default 2·10⁸) the heavy part silently falls
    back to the combinatorial strategy.

    [guard] adds the entry/pre-MM budget checks and the cost-honesty
    re-plan checkpoint; the guard's cells budget additionally tightens
    the cell cap (a third of [max_cells] per matrix, so the three
    products stay within the budget).  plan_counts' thresholds do not
    depend on the |OUT| estimate, so there is no chunked output
    checkpoint in this variant. *)

val project_with_plan_info :
  ?domains:int ->
  ?strategy:strategy ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  ?tile:Jp_tile.config ->
  r:Relation.t ->
  s:Relation.t ->
  unit ->
  Pairs.t * Optimizer.plan
(** {!project} that also returns the initial plan it chose (for
    EXPLAIN-style reporting in the CLI and benches).  With [guard] that
    plan is made from the guard's injected estimate, exactly as in
    {!project}, and the execution may still re-plan away from it. *)
