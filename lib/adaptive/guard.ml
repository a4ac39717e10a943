module Timer = Jp_util.Timer

(* Published in bulk per checkpoint (checkpoints are per-chunk/per-phase by
   contract), so the atomic bumps stay off the per-tuple paths. *)
let c_checkpoints = Jp_obs.counter "guard.checkpoints"

let c_replans = Jp_obs.counter "guard.replans"

let c_degrades = Jp_obs.counter "guard.degrades"

type budget = { max_seconds : float option; max_cells : int option }

let no_budget = { max_seconds = None; max_cells = None }

type config = {
  divergence : float;
  budget : budget;
  inject : Inject.t;
}

let default =
  {
    divergence = 8.0;
    budget = no_budget;
    inject = Inject.none;
  }

let with_budget_ms ms cfg =
  if ms < 0.0 then invalid_arg "Guard.with_budget_ms: negative budget";
  { cfg with budget = { cfg.budget with max_seconds = Some (ms /. 1e3) } }

let with_inject inject cfg = { cfg with inject }

(* A zero wall-clock budget degrades at the very first checkpoint, before
   any matrix work: the whole query runs on the combinatorial/WCOJ path.
   Jp_service uses this as its degraded final attempt after repeated
   faults in the fast path. *)
let safe = with_budget_ms 0.0 default

type verdict = Continue | Replan | Degrade

type t = {
  cfg : config;
  t0 : float;
  mutable replans_left : int;
  mutable replanned : bool;
  mutable degraded : bool;
  mutable checkpoints : int;
}

let start cfg =
  if cfg.divergence <= 1.0 then invalid_arg "Guard.start: divergence must be > 1";
  {
    cfg;
    t0 = Timer.now ();
    replans_left = 1;
    replanned = false;
    degraded = false;
    checkpoints = 0;
  }

let config t = t.cfg

let inject t = t.cfg.inject

let elapsed t = Timer.now () -. t.t0

let tick t =
  t.checkpoints <- t.checkpoints + 1;
  Jp_obs.incr c_checkpoints

let check_budget t ~cells =
  tick t;
  let over_time =
    match t.cfg.budget.max_seconds with
    | Some limit -> elapsed t >= limit
    | None -> false
  in
  let over_cells =
    match t.cfg.budget.max_cells with Some limit -> cells > limit | None -> false
  in
  if over_time || over_cells then Degrade else Continue

let check_estimate t ~est ~observed =
  tick t;
  if est <= 0.0 || observed < 0.0 || t.replans_left <= 0 then Continue
  else begin
    let ratio = observed /. est in
    if ratio > t.cfg.divergence || ratio < 1.0 /. t.cfg.divergence then Replan
    else Continue
  end

let can_replan t = t.replans_left > 0

let note_replan t =
  t.replans_left <- t.replans_left - 1;
  t.replanned <- true;
  Jp_obs.incr c_replans

let note_degrade t =
  if not t.degraded then Jp_obs.incr c_degrades;
  t.degraded <- true

let replanned t = t.replanned

let degraded t = t.degraded

let checkpoints t = t.checkpoints
