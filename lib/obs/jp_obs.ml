module Json = Json
module Hook = Jp_util.Obs_hook
module Timer = Jp_util.Timer
module Tablefmt = Jp_util.Tablefmt

(* ------------------------------------------------------------------ *)
(* global switch                                                       *)

(* Atomic rather than a bare ref: worker domains read the switch on
   their hot paths while the coordinator may toggle it. *)
let on = Atomic.make false

let recording () = Atomic.get on

let enable () =
  Atomic.set on true;
  Atomic.set Hook.enabled true

let disable () =
  Atomic.set on false;
  Atomic.set Hook.enabled false

(* ------------------------------------------------------------------ *)
(* counters                                                            *)

type counter = { cname : string; cell : int Atomic.t }

let registry_lock = Mutex.create ()

let registry : counter list ref =
  ref [] [@@jp.domain_safe "every access is guarded by registry_lock"]

let counter name =
  Mutex.lock registry_lock;
  let c =
    match List.find_opt (fun c -> c.cname = name) !registry with
    | Some c -> c
    | None ->
      let c = { cname = name; cell = Atomic.make 0 } in
      registry := c :: !registry;
      c
  in
  Mutex.unlock registry_lock;
  c

let add c n = if Atomic.get on then ignore (Atomic.fetch_and_add c.cell n)

let incr c = add c 1

let value c = Atomic.get c.cell

module C = struct
  let mm_bool_word_ops = counter "mm.bool_word_ops"

  let mm_count_word_ops = counter "mm.count_word_ops"

  let stamp_hits = counter "dedup.stamp_hits"

  let stamp_misses = counter "dedup.stamp_misses"

  let light_probes = counter "light.probes"

  let pool_tasks = counter "pool.tasks"

  let pool_spawns = counter "pool.domain_spawns"

  (* Query-service lifecycle (Jp_service): every submission ends up in
     exactly one of accepted/rejected, and every accepted query in exactly
     one of completed/failed/deadline/cancelled — the balance the service
     tests enforce. *)
  let service_submitted = counter "service.submitted"

  let service_accepted = counter "service.accepted"

  let service_rejected = counter "service.rejected_overload"

  let service_completed = counter "service.completed"

  let service_failed = counter "service.failed"

  let service_deadline = counter "service.deadline_exceeded"

  let service_cancelled = counter "service.cancelled"

  let service_retries = counter "service.retries"

  let service_degraded = counter "service.degraded"

  let service_workers_spawned = counter "service.workers_spawned"

  let service_workers_joined = counter "service.workers_joined"

  (* Overload controller (Jp_service.Overload): shed splits off from
     rejected (queue full) at admission, expired_in_queue from deadline
     (queries killed at dequeue, zero attempts); brownout transitions and
     the queries served degraded under it are counted separately so the
     ladder is auditable from the exposition alone. *)
  let service_shed = counter "service.shed"

  let service_expired = counter "service.expired_in_queue"

  let service_brownout_entered = counter "service.brownout_entered"

  let service_brownout_exited = counter "service.brownout_exited"

  let service_brownout_served = counter "service.brownout_served"

  (* Chaos injection (Jp_chaos), one bump per fault actually delivered. *)
  let chaos_transients = counter "chaos.transients"

  let chaos_worker_kills = counter "chaos.worker_kills"

  let chaos_slowdowns = counter "chaos.slowdowns"

  (* Semantic cache (Jp_cache).  hit/miss count lookups, evict/reject
     count entries pushed out by the LANDLORD budget or refused by the
     cost-based admission test, invalidate counts entries dropped by view
     updates.  The resident footprint is a level, so it lives in
     Jp_metrics as the cache.resident_bytes gauge. *)
  let cache_hits = counter "cache.hit"

  let cache_misses = counter "cache.miss"

  let cache_evictions = counter "cache.evict"

  let cache_rejects = counter "cache.reject"

  let cache_invalidations = counter "cache.invalidate"

  (* Tiled heavy-part product (Jp_tile).  build/store_hit/evict count
     operand-tile traffic through the bounded resident store, product
     counts output tiles computed; tile.peak_bytes is the monotone
     high-water mark of the store's resident footprint (bumped by the
     increase only, so bench-cell deltas report the peak growth).  The
     footprint itself is the Jp_metrics tile.resident_bytes gauge. *)
  let tile_builds = counter "tile.build"

  let tile_store_hits = counter "tile.store_hit"

  let tile_evictions = counter "tile.evict"

  let tile_products = counter "tile.product"

  let tile_peak_bytes = counter "tile.peak_bytes"
end

let counter_values () =
  Mutex.lock registry_lock;
  let own = List.map (fun c -> (c.cname, Atomic.get c.cell)) !registry in
  Mutex.unlock registry_lock;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (("sort.radix_bytes", Atomic.get Hook.radix_bytes) :: own)

let render_counters () =
  let rows =
    List.filter_map
      (fun (name, v) -> if v = 0 then None else Some [ name; Tablefmt.big_int v ])
      (counter_values ())
  in
  match rows with
  | [] -> "(all counters zero)\n"
  | rows -> Tablefmt.render ~header:[ "counter"; "value" ] ~rows

(* ------------------------------------------------------------------ *)
(* spans                                                               *)

type event = {
  tid : int;
  seq : int; (* recording order, breaks timestamp ties deterministically *)
  path : string list; (* innermost first *)
  t0 : float;
  t1 : float;
  args : (string * Json.t) list; (* trace correlation payload *)
  inst : bool; (* instant marker rather than an interval *)
}

let events_lock = Mutex.create ()

let events : event list ref =
  ref [] [@@jp.domain_safe "every access is guarded by events_lock"]

let event_seq =
  ref 0 [@@jp.domain_safe "every access is guarded by events_lock"]

(* Each domain keeps its own stack of open span names, so worker-domain
   spans nest under their own roots instead of racing on a global. *)
let stack_key : string list ref Domain.DLS.key = Domain.DLS.new_key (fun () -> ref [])

let timed_span ?(args = []) name f =
  if not (Atomic.get on) then (f (), 0.0)
  else begin
    let stack = Domain.DLS.get stack_key in
    let path = name :: !stack in
    stack := path;
    let t0 = Timer.now () in
    let finish () =
      let t1 = Timer.now () in
      stack := (match !stack with _ :: tl -> tl | [] -> []);
      Mutex.lock events_lock;
      let seq = !event_seq in
      Stdlib.incr event_seq;
      events :=
        { tid = (Domain.self () :> int); seq; path; t0; t1; args; inst = false }
        :: !events;
      Mutex.unlock events_lock;
      t1 -. t0
    in
    match f () with
    | x ->
      let dt = finish () in
      (x, dt)
    | exception e ->
      ignore (finish ());
      raise e
  end

let span ?args name f = fst (timed_span ?args name f)

let instant ?(args = []) name =
  if Atomic.get on then begin
    let stack = Domain.DLS.get stack_key in
    let t = Timer.now () in
    Mutex.lock events_lock;
    let seq = !event_seq in
    Stdlib.incr event_seq;
    events :=
      {
        tid = (Domain.self () :> int);
        seq;
        path = name :: !stack;
        t0 = t;
        t1 = t;
        args;
        inst = true;
      }
      :: !events;
    Mutex.unlock events_lock
  end

let span_events () =
  Mutex.lock events_lock;
  let evs = !events in
  Mutex.unlock events_lock;
  List.sort
    (fun a b ->
      match Float.compare a.t0 b.t0 with
      | 0 -> (
        match Float.compare a.t1 b.t1 with 0 -> Int.compare a.seq b.seq | n -> n)
      | n -> n)
    evs

(* Aggregated view: events sharing a call path collapse into one node
   (summed time, call count); children keep first-call order. *)
type span_node = {
  name : string;
  calls : int;
  seconds : float;
  children : span_node list;
}

type mutable_node = {
  mutable m_calls : int;
  mutable m_seconds : float;
  mutable m_children : (string * mutable_node) list; (* reversed *)
}

let span_tree () =
  let root = { m_calls = 0; m_seconds = 0.0; m_children = [] } in
  let node_for parent name =
    match List.assoc_opt name parent.m_children with
    | Some n -> n
    | None ->
      let n = { m_calls = 0; m_seconds = 0.0; m_children = [] } in
      parent.m_children <- (name, n) :: parent.m_children;
      n
  in
  List.iter
    (fun ev ->
      let node =
        List.fold_left (fun parent name -> node_for parent name) root
          (List.rev ev.path)
      in
      node.m_calls <- node.m_calls + 1;
      node.m_seconds <- node.m_seconds +. (ev.t1 -. ev.t0))
    (span_events ());
  let rec freeze m =
    List.rev_map
      (fun (name, n) ->
        { name; calls = n.m_calls; seconds = n.m_seconds; children = freeze n })
      m.m_children
  in
  freeze root

let render_spans () =
  let rows = ref [] in
  let rec walk depth node =
    let child_total =
      List.fold_left (fun acc c -> acc +. c.seconds) 0.0 node.children
    in
    let self = Float.max 0.0 (node.seconds -. child_total) in
    rows :=
      [
        String.make (2 * depth) ' ' ^ node.name;
        string_of_int node.calls;
        Tablefmt.seconds node.seconds;
        Tablefmt.seconds self;
      ]
      :: !rows;
    List.iter (walk (depth + 1)) node.children
  in
  let tree = span_tree () in
  List.iter (walk 0) tree;
  match tree with
  | [] -> "(no spans recorded)\n"
  | _ ->
    Tablefmt.render
      ~header:[ "span"; "calls"; "total"; "self" ]
      ~rows:(List.rev !rows)

let chrome_trace ?extra () =
  let evs = span_events () in
  let base = match evs with [] -> 0.0 | ev :: _ -> ev.t0 in
  let trace_events =
    List.map
      (fun ev ->
        let shape =
          if ev.inst then
            [ ("ph", Json.String "i"); ("s", Json.String "t") ]
          else
            [
              ("ph", Json.String "X");
              ("dur", Json.Float ((ev.t1 -. ev.t0) *. 1e6));
            ]
        in
        Json.Obj
          ([
             ("name", Json.String (List.hd ev.path));
             ("cat", Json.String "joinproj");
           ]
          @ shape
          @ [
              ("ts", Json.Float ((ev.t0 -. base) *. 1e6));
              ("pid", Json.Int 1);
              ("tid", Json.Int ev.tid);
            ]
          @ (match ev.args with [] -> [] | args -> [ ("args", Json.Obj args) ])))
      evs
  in
  let trace_events =
    match extra with
    | None -> trace_events
    | Some f -> trace_events @ f ~base
  in
  let counter_args =
    List.filter_map
      (fun (name, v) -> if v = 0 then None else Some (name, Json.Int v))
      (counter_values ())
  in
  Json.Obj
    [
      ("traceEvents", Json.List trace_events);
      ("displayTimeUnit", Json.String "ms");
      ("otherData", Json.Obj [ ("counters", Json.Obj counter_args) ]);
    ]

let chrome_trace_string ?extra () = Json.to_string (chrome_trace ?extra ())

(* ------------------------------------------------------------------ *)
(* plan vs actual                                                      *)

type plan_actual = {
  label : string;
  decision : string;
  est_out : int;
  join_size : int;
  est_seconds : float;
  actual_out : int;
  actual_seconds : float;
  replanned : bool;
  degraded : bool;
  phases : (string * float) list;
}

let plans_lock = Mutex.create ()

let plans : plan_actual list ref =
  ref [] [@@jp.domain_safe "every access is guarded by plans_lock"]

let record_plan ?(replanned = false) ?(degraded = false) ~label ~decision
    ~est_out ~join_size ~est_seconds ~actual_out ~actual_seconds ~phases () =
  if Atomic.get on then begin
    let p =
      {
        label;
        decision;
        est_out;
        join_size;
        est_seconds;
        actual_out;
        actual_seconds;
        replanned;
        degraded;
        phases;
      }
    in
    Mutex.lock plans_lock;
    plans := p :: !plans;
    Mutex.unlock plans_lock
  end

let plan_records () =
  Mutex.lock plans_lock;
  let ps = List.rev !plans in
  Mutex.unlock plans_lock;
  ps

let ratio actual est =
  if Float.is_nan est || est <= 0.0 then "-"
  else Printf.sprintf "x%.2f" (actual /. est)

let opt_int n = if n < 0 then "-" else Tablefmt.big_int n

let opt_seconds s = if Float.is_nan s || s < 0.0 then "-" else Tablefmt.seconds s

let adapt_string ~replanned ~degraded =
  match (replanned, degraded) with
  | false, false -> "-"
  | true, false -> "replan"
  | false, true -> "degrade"
  | true, true -> "replan+degrade"

let render_plans () =
  match plan_records () with
  | [] -> "(no plans recorded)\n"
  | records ->
    let rows =
      List.map
        (fun p ->
          let phases =
            String.concat "; "
              (List.map
                 (fun (name, dt) ->
                   Printf.sprintf "%s %s" name (Tablefmt.seconds dt))
                 p.phases)
          in
          [
            p.label;
            p.decision;
            opt_int p.est_out;
            opt_int p.actual_out;
            ratio (float_of_int p.actual_out) (float_of_int p.est_out);
            opt_seconds p.est_seconds;
            opt_seconds p.actual_seconds;
            ratio p.actual_seconds p.est_seconds;
            adapt_string ~replanned:p.replanned ~degraded:p.degraded;
            phases;
          ])
        records
    in
    Tablefmt.render
      ~header:
        [
          "label";
          "plan";
          "est_out";
          "|OUT|";
          "out err";
          "est";
          "actual";
          "t err";
          "adapt";
          "phases";
        ]
      ~rows

(* ------------------------------------------------------------------ *)
(* reset                                                               *)

let reset () =
  Mutex.lock registry_lock;
  List.iter (fun c -> Atomic.set c.cell 0) !registry;
  Mutex.unlock registry_lock;
  Hook.reset ();
  Mutex.lock events_lock;
  events := [];
  event_seq := 0;
  Mutex.unlock events_lock;
  Mutex.lock plans_lock;
  plans := [];
  Mutex.unlock plans_lock
