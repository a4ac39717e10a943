(** The star query algorithm of Section 3.2:
    Q*{_k}(x₁,…,x{_k}) = R₁(x₁,y), …, R{_k}(x{_k},y).

    Every relation Rᵢ is split into
    - Rᵢ⁻ : tuples whose xᵢ has degree ≤ Δ₂,
    - Rᵢ⋄ : tuples whose y is light (degree ≤ Δ₁) in {e every other}
      relation,
    - Rᵢ⁺ : the rest (heavy xᵢ, and y heavy in at least one other
      relation).

    Steps 1–2 run the worst-case-optimal join with Rⱼ replaced by Rⱼ⁻
    (then Rⱼ⋄) for each j and project.  Step 3 groups the variables into a
    ⌈k/2⌉-prefix and ⌊k/2⌋-suffix, materializes the two rectangular
    matrices V ((N/Δ₂)^⌈k/2⌉ × N/Δ₁) and W over the heavy tuple
    combinations that actually occur, and multiplies.  Only matrix rows
    with at least one surviving y are materialized, so memory stays
    proportional to the heavy join, not to the nominal dimensions.

    [Combinatorial] replaces step 3 with the same heavy-restricted
    enumeration evaluated tuple-at-a-time — the star {b Non-MMJoin}.

    The product is streamed one row at a time, so peak memory stays
    O(columns) even when the nominal u × w result would not fit.  The
    star evaluation runs single-domain. *)

module Relation = Jp_relation.Relation
module Tuples = Jp_relation.Tuples
module Cancel = Jp_util.Cancel

type strategy = Matrix | Combinatorial

val project :
  ?strategy:strategy ->
  ?thresholds:int * int ->
  ?guard:Jp_adaptive.Guard.config ->
  ?cancel:Cancel.t ->
  Relation.t array ->
  Tuples.t
(** [project rels] evaluates π{_x₁…x_k} of the star join.  Default
    [thresholds] come from {!choose_thresholds}.  Arity must be ≥ 2.

    Star thresholds are input-derived (no |OUT| estimate), so [guard]
    contributes budgets and outcome recording only: time-budget
    checkpoints before the light steps and before the matrix step degrade
    the heavy residue to the combinatorial enumeration, the cells budget
    tightens the matrix interning cap, and a [Matrix_overflow] fallback is
    recorded as a degradation in the plan-vs-actual record.

    [cancel] is polled before each sub-join and every few hundred
    iterations of the qualify/intern/product/enumeration loops; absent,
    the code path is exactly the historical one. *)

val choose_thresholds : Relation.t array -> int * int
(** Closed-form threshold choice in the spirit of Example 4: balances the
    light enumeration N·Δ₁^(k−1), the output-rescan |OUT|·Δ₂ and the
    matrix work, using the k=2 estimator pessimistically lifted to k
    relations. *)

