(* Jp_service + Jp_chaos: the resilient query service.  The contract under
   test: a submitted query resolves to exactly the fault-free engine result
   or a typed error — never a wrong answer — and the service neither leaks
   worker domains nor loses tickets, whatever the chaos seed injects. *)

module Service = Jp_service
module Chaos = Jp_chaos
module Cancel = Jp_util.Cancel
module Guard = Jp_adaptive.Guard
module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Presets = Jp_workload.Presets
module Overload = Jp_service.Overload
module Arrivals = Jp_workload.Arrivals

let small name = Presets.load ~scale:0.02 ~seed:7 name

let with_service cfg f =
  let svc = Service.create cfg in
  Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> f svc)

let with_recording f =
  Jp_obs.reset ();
  Jp_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Jp_obs.disable ();
      Jp_obs.reset ())
    f

(* Wait until a worker signals it has started running a job; the sleep
   keeps the spin polite on a single-core box. *)
let wait_for flag =
  while not (Atomic.get flag) do
    Unix.sleepf 0.0002
  done

let check_error msg expected = function
  | Error e when e = expected -> ()
  | Error e -> Alcotest.failf "%s: got error %s" msg (Service.error_to_string e)
  | Ok _ -> Alcotest.failf "%s: unexpectedly succeeded" msg

(* The two-path query every service test runs: [degraded] maps to the
   safe non-matrix guard, exactly as a real client would. *)
let count_query r ~cancel ~degraded =
  let guard = if degraded then Some Guard.safe else None in
  Pairs.count (Joinproj.Two_path.project ?guard ~cancel ~r ~s:r ())

(* Poll the token a few times up front so any armed fault (window <= 4)
   fires deterministically even on queries too small to reach the engine's
   own checkpoints. *)
let polled_count_query r ~cancel ~degraded =
  for _ = 1 to 8 do
    Cancel.check cancel
  done;
  count_query r ~cancel ~degraded

(* ------------------------------------------------------------------ *)
(* ?cancel is inert when unused: every engine with a fresh token must   *)
(* return exactly what it returns without one.                          *)
(* ------------------------------------------------------------------ *)

let test_cancel_token_inert () =
  let r = small Presets.Jokes in
  let tok () = Cancel.create () in
  Alcotest.(check bool) "two_path mm" true
    (Pairs.equal
       (Joinproj.Two_path.project ~r ~s:r ())
       (Joinproj.Two_path.project ~cancel:(tok ()) ~r ~s:r ()));
  Alcotest.(check bool) "two_path mm, 2 domains" true
    (Pairs.equal
       (Joinproj.Two_path.project ~domains:2 ~r ~s:r ())
       (Joinproj.Two_path.project ~domains:2 ~cancel:(tok ()) ~r ~s:r ()));
  Alcotest.(check bool) "two_path nonmm" true
    (Pairs.equal
       (Joinproj.Two_path.project ~strategy:Joinproj.Two_path.Combinatorial ~r
          ~s:r ())
       (Joinproj.Two_path.project ~strategy:Joinproj.Two_path.Combinatorial
          ~cancel:(tok ()) ~r ~s:r ()));
  let rels = [| r; r; r |] in
  Alcotest.(check bool) "star" true
    (Jp_relation.Tuples.equal
       (Joinproj.Star.project rels)
       (Joinproj.Star.project ~cancel:(tok ()) rels));
  Alcotest.(check bool) "ssj" true
    (Pairs.equal
       (Jp_ssj.Mm_ssj.join ~c:2 r)
       (Jp_ssj.Mm_ssj.join ~cancel:(tok ()) ~c:2 r));
  Alcotest.(check bool) "scj" true
    (Pairs.equal (Jp_scj.Mm_scj.join r) (Jp_scj.Mm_scj.join ~cancel:(tok ()) r));
  let n = Relation.src_count r in
  let queries =
    Jp_workload.Generate.batch_queries ~seed:3 ~count:100 ~nx:n ~nz:n ()
  in
  Alcotest.(check bool) "bsi" true
    (Jp_bsi.Bsi.answer_batch ~r ~s:r queries
    = Jp_bsi.Bsi.answer_batch ~cancel:(tok ()) ~r ~s:r queries)

let test_precancelled_engine_raises () =
  let r = small Presets.Jokes in
  let dead () =
    let c = Cancel.create () in
    Cancel.cancel c;
    c
  in
  List.iter
    (fun (engine, run) ->
      Alcotest.check_raises engine (Cancel.Cancelled Cancel.Requested) (fun () ->
          run (dead ()) r))
    [
      ("two_path", fun c r -> ignore (Joinproj.Two_path.project ~cancel:c ~r ~s:r ()));
      ("star", fun c r -> ignore (Joinproj.Star.project ~cancel:c [| r; r; r |]));
      ("ssj", fun c r -> ignore (Jp_ssj.Mm_ssj.join ~cancel:c ~c:2 r));
      ("scj", fun c r -> ignore (Jp_scj.Mm_scj.join ~cancel:c r));
    ]

(* ------------------------------------------------------------------ *)
(* Service happy path, deadlines, admission control, client cancel      *)
(* ------------------------------------------------------------------ *)

let test_submit_await () =
  let r = small Presets.Jokes in
  let direct = count_query r ~cancel:(Cancel.create ()) ~degraded:false in
  with_service Service.default (fun svc ->
      let tk = Service.submit svc (fun ~cancel ~attempt:_ ~degraded -> count_query r ~cancel ~degraded) in
      let rep = Service.await tk in
      (match rep.Service.outcome with
      | Ok n -> Alcotest.(check int) "served = direct" direct n
      | Error e -> Alcotest.failf "unexpected error %s" (Service.error_to_string e));
      Alcotest.(check int) "one attempt" 1 rep.Service.attempts;
      Alcotest.(check int) "no retries" 0 rep.Service.retries;
      Alcotest.(check bool) "not degraded" false rep.Service.degraded;
      let again = Service.await tk in
      Alcotest.(check bool) "await is idempotent" true (again.Service.outcome = rep.Service.outcome))

let test_deadline_exceeded () =
  let r = small Presets.Jokes in
  with_service Service.default (fun svc ->
      let tk =
        Service.submit svc ~deadline_s:0.0 (fun ~cancel ~attempt:_ ~degraded ->
            count_query r ~cancel ~degraded)
      in
      let rep = Service.await tk in
      check_error "deadline 0" Service.Deadline_exceeded rep.Service.outcome)

let test_overload_rejects () =
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let cfg = { Service.default with Service.queue_capacity = 1 } in
  with_service cfg (fun svc ->
      let block ~cancel:_ ~attempt:_ ~degraded:_ =
        Atomic.set started true;
        while not (Atomic.get gate) do
          Unix.sleepf 0.0002
        done;
        1
      in
      let t1 = Service.submit svc block in
      wait_for started;
      (* the worker is busy with t1, so t2 fills the whole queue and t3
         must be rejected at admission *)
      let t2 = Service.submit svc (fun ~cancel:_ ~attempt:_ ~degraded:_ -> 2) in
      let t3 = Service.submit svc (fun ~cancel:_ ~attempt:_ ~degraded:_ -> 3) in
      let r3 = Service.await t3 in
      check_error "t3 rejected" Service.Overloaded r3.Service.outcome;
      Alcotest.(check int) "rejection burns no attempts" 0 r3.Service.attempts;
      Atomic.set gate true;
      Alcotest.(check bool) "t1 completes" true ((Service.await t1).Service.outcome = Ok 1);
      Alcotest.(check bool) "t2 completes" true ((Service.await t2).Service.outcome = Ok 2))

let test_client_cancel () =
  let started = Atomic.make false in
  with_service Service.default (fun svc ->
      let tk =
        Service.submit svc (fun ~cancel ~attempt:_ ~degraded:_ ->
            Atomic.set started true;
            while true do
              Cancel.check cancel;
              Unix.sleepf 0.0002
            done;
            0)
      in
      wait_for started;
      Service.cancel tk;
      let rep = Service.await tk in
      check_error "cancelled" Service.Cancelled rep.Service.outcome)

let test_shutdown_aborts_queued () =
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let svc = Service.create Service.default in
  let t1 =
    Service.submit svc (fun ~cancel:_ ~attempt:_ ~degraded:_ ->
        Atomic.set started true;
        while not (Atomic.get gate) do
          Unix.sleepf 0.0002
        done;
        1)
  in
  wait_for started;
  let t2 = Service.submit svc (fun ~cancel:_ ~attempt:_ ~degraded:_ -> 2) in
  (* release the worker just before shutdown joins it *)
  let releaser = Domain.spawn (fun () -> Unix.sleepf 0.005; Atomic.set gate true) in
  Service.shutdown svc;
  Domain.join releaser;
  Alcotest.(check bool) "in-flight query completed" true
    ((Service.await t1).Service.outcome = Ok 1);
  check_error "queued ticket aborted" Service.Cancelled (Service.await t2).Service.outcome;
  (* a submit after shutdown is rejected, not lost *)
  let t3 = Service.submit svc (fun ~cancel:_ ~attempt:_ ~degraded:_ -> 3) in
  check_error "post-shutdown submit" Service.Overloaded (Service.await t3).Service.outcome;
  Service.shutdown svc

(* ------------------------------------------------------------------ *)
(* Chaos: plan determinism and the retry/degrade ladder                 *)
(* ------------------------------------------------------------------ *)

let test_chaos_plan_deterministic () =
  let cfg = Chaos.default 42 in
  for q = 0 to 50 do
    for a = 0 to 3 do
      Alcotest.(check bool)
        (Printf.sprintf "plan (%d,%d) stable" q a)
        true
        (Chaos.plan cfg ~query:q ~attempt:a ~degraded:false
        = Chaos.plan cfg ~query:q ~attempt:a ~degraded:false)
    done
  done;
  Alcotest.(check bool) "degraded attempts spared" true
    (Chaos.plan { (Chaos.default 42) with Chaos.p_transient = 1.0 } ~query:0
       ~attempt:0 ~degraded:true
    = Chaos.No_fault)

(* Find a query key whose first attempt draws a transient and whose
   second draws nothing: submitted with that key, the query must retry
   exactly once and still return the fault-free answer. *)
let test_retry_then_success () =
  let ccfg =
    { (Chaos.default 3) with
      Chaos.p_transient = 0.5;
      Chaos.p_worker_kill = 0.0;
      Chaos.p_slowdown = 0.0 }
  in
  let faults ~attempt k =
    match Chaos.plan ccfg ~query:k ~attempt ~degraded:false with
    | Chaos.Fault { fault = Chaos.Transient; _ } -> true
    | _ -> false
  in
  let rec find k =
    if k > 10_000 then Alcotest.fail "no retry-then-success key in range"
    else if faults ~attempt:0 k && not (faults ~attempt:1 k) then k
    else find (k + 1)
  in
  let key = find 0 in
  let r = small Presets.Jokes in
  let direct = count_query r ~cancel:(Cancel.create ()) ~degraded:false in
  let cfg = { Service.default with Service.chaos = Some ccfg; Service.backoff_s = 0.0005 } in
  with_service cfg (fun svc ->
      let tk =
        Service.submit svc ~key (fun ~cancel ~attempt:_ ~degraded ->
            polled_count_query r ~cancel ~degraded)
      in
      let rep = Service.await tk in
      Alcotest.(check bool) "retried query is correct" true (rep.Service.outcome = Ok direct);
      Alcotest.(check int) "exactly one retry" 1 rep.Service.retries;
      Alcotest.(check int) "two attempts" 2 rep.Service.attempts;
      Alcotest.(check bool) "no degradation needed" false rep.Service.degraded)

let test_retries_exhaust_then_degrade () =
  let ccfg = { (Chaos.default 5) with Chaos.p_transient = 1.0 } in
  let r = small Presets.Jokes in
  let direct = count_query r ~cancel:(Cancel.create ()) ~degraded:false in
  let cfg = { Service.default with Service.chaos = Some ccfg; Service.backoff_s = 0.0005 } in
  with_service cfg (fun svc ->
      let tk =
        Service.submit svc (fun ~cancel ~attempt:_ ~degraded ->
            polled_count_query r ~cancel ~degraded)
      in
      let rep = Service.await tk in
      Alcotest.(check bool) "degraded answer is correct" true (rep.Service.outcome = Ok direct);
      Alcotest.(check bool) "served degraded" true rep.Service.degraded;
      Alcotest.(check int) "all retries burned" (Service.default.Service.max_retries + 1)
        rep.Service.retries;
      Alcotest.(check int) "normal attempts + degraded one"
        (Service.default.Service.max_retries + 2)
        rep.Service.attempts)

let test_persistent_fault_fails () =
  let ccfg =
    { (Chaos.default 5) with Chaos.p_transient = 1.0; Chaos.spare_degraded = false }
  in
  let r = small Presets.Jokes in
  let cfg = { Service.default with Service.chaos = Some ccfg; Service.backoff_s = 0.0005 } in
  with_service cfg (fun svc ->
      let tk =
        Service.submit svc (fun ~cancel ~attempt:_ ~degraded ->
            polled_count_query r ~cancel ~degraded)
      in
      match (Service.await tk).Service.outcome with
      | Error (Service.Failed msg) ->
        Alcotest.(check bool) "names the fault" true
          (String.length msg > 0)
      | Error e -> Alcotest.failf "expected Failed, got %s" (Service.error_to_string e)
      | Ok _ -> Alcotest.fail "persistent fault must not succeed")

let test_slowdown_is_harmless () =
  let ccfg =
    { Chaos.none with
      Chaos.seed = 9;
      Chaos.p_slowdown = 1.0;
      Chaos.slowdown_s = 0.001 }
  in
  let r = small Presets.Jokes in
  let direct = count_query r ~cancel:(Cancel.create ()) ~degraded:false in
  let cfg = { Service.default with Service.chaos = Some ccfg } in
  with_service cfg (fun svc ->
      let tk =
        Service.submit svc (fun ~cancel ~attempt:_ ~degraded ->
            polled_count_query r ~cancel ~degraded)
      in
      let rep = Service.await tk in
      Alcotest.(check bool) "slowdown does not change the result" true
        (rep.Service.outcome = Ok direct);
      Alcotest.(check int) "no retry for a slowdown" 0 rep.Service.retries)

(* ------------------------------------------------------------------ *)
(* Chaos-seeded property: a full workload under several seeds.          *)
(* Every completed query equals the direct engine result, every other   *)
(* resolves to a typed error, counters balance, no domain leaks, and    *)
(* the whole run is a deterministic function of the seed.               *)
(* ------------------------------------------------------------------ *)

let run_chaos_workload ~seed ~nq r =
  let ccfg = { (Chaos.default seed) with Chaos.p_transient = 0.4 } in
  let cfg =
    { Service.default with Service.chaos = Some ccfg; Service.backoff_s = 0.0002 }
  in
  with_service cfg (fun svc ->
      let tickets =
        List.init nq (fun i ->
            Service.submit svc ~key:i (fun ~cancel ~attempt:_ ~degraded ->
                polled_count_query r ~cancel ~degraded))
      in
      List.map Service.await tickets)

let test_chaos_workload_properties () =
  let r = small Presets.Jokes in
  let direct = count_query r ~cancel:(Cancel.create ()) ~degraded:false in
  List.iter
    (fun seed ->
      with_recording (fun () ->
          let reports = run_chaos_workload ~seed ~nq:12 r in
          List.iteri
            (fun i rep ->
              match rep.Service.outcome with
              | Ok n ->
                Alcotest.(check int)
                  (Printf.sprintf "seed %d query %d correct" seed i)
                  direct n
              | Error (Service.Failed _) -> ()
              | Error e ->
                Alcotest.failf "seed %d query %d: unexpected %s" seed i
                  (Service.error_to_string e))
            reports;
          let v c = Jp_obs.value c in
          Alcotest.(check int)
            (Printf.sprintf "seed %d: admissions balance" seed)
            (v Jp_obs.C.service_submitted)
            (v Jp_obs.C.service_accepted + v Jp_obs.C.service_rejected
            + v Jp_obs.C.service_shed);
          Alcotest.(check int)
            (Printf.sprintf "seed %d: resolutions balance" seed)
            (v Jp_obs.C.service_accepted)
            (v Jp_obs.C.service_completed + v Jp_obs.C.service_failed
            + v Jp_obs.C.service_deadline + v Jp_obs.C.service_expired
            + v Jp_obs.C.service_cancelled);
          Alcotest.(check int)
            (Printf.sprintf "seed %d: no leaked domains" seed)
            (v Jp_obs.C.service_workers_spawned)
            (v Jp_obs.C.service_workers_joined)))
    [ 1; 2; 3 ]

let shape rep =
  ( (match rep.Service.outcome with
    | Ok n -> `Ok n
    | Error Service.Overloaded -> `Overloaded
    | Error Service.Shed -> `Shed
    | Error Service.Expired_in_queue -> `Expired
    | Error Service.Deadline_exceeded -> `Deadline
    | Error Service.Cancelled -> `Cancelled
    | Error (Service.Failed m) -> `Failed m),
    rep.Service.attempts,
    rep.Service.retries,
    rep.Service.degraded )

(* ------------------------------------------------------------------ *)
(* Trace correlation: every query gets a distinct trace id in           *)
(* submission order, reports carry it, and the Chrome trace / latency   *)
(* histograms are fed one record per executed query.                    *)
(* ------------------------------------------------------------------ *)

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_trace_ids () =
  let r = small Presets.Jokes in
  with_recording (fun () ->
      Jp_metrics.reset ();
      let nq = 4 in
      let reports =
        with_service Service.default (fun svc ->
            let tickets =
              List.init nq (fun _ ->
                  Service.submit svc (fun ~cancel ~attempt:_ ~degraded ->
                      count_query r ~cancel ~degraded))
            in
            List.map Service.await tickets)
      in
      Alcotest.(check (list int)) "trace ids assigned in submission order"
        (List.init nq Fun.id)
        (List.map (fun rep -> rep.Service.trace_id) reports);
      let trace = Jp_metrics.chrome_trace_string () in
      List.iter
        (fun rep ->
          Alcotest.(check bool)
            (Printf.sprintf "trace carries query %d's id" rep.Service.trace_id)
            true
            (contains trace
               (Printf.sprintf "\"trace_id\":%d" rep.Service.trace_id)))
        reports;
      Alcotest.(check bool) "attempt spans recorded" true
        (contains trace "\"name\":\"service.attempt\"");
      Alcotest.(check bool) "outcome instants recorded" true
        (contains trace "\"name\":\"service.outcome\"");
      Alcotest.(check bool) "outcome carries the verdict" true
        (contains trace "\"outcome\":\"ok\"");
      let hist name =
        Jp_metrics.Hist.count (Jp_metrics.histogram_value name)
      in
      Alcotest.(check int) "one queued-latency record per query" nq
        (hist Jp_metrics.H.service_queued_seconds);
      Alcotest.(check int) "one ran-latency record per query" nq
        (hist Jp_metrics.H.service_ran_seconds);
      Jp_metrics.reset ())

let test_chaos_workload_deterministic () =
  let r = small Presets.Jokes in
  let a = List.map shape (run_chaos_workload ~seed:2 ~nq:12 r) in
  let b = List.map shape (run_chaos_workload ~seed:2 ~nq:12 r) in
  Alcotest.(check bool) "same seed, same run" true (a = b);
  let c = List.map shape (run_chaos_workload ~seed:4 ~nq:12 r) in
  Alcotest.(check bool) "different seed, different faults" true (a <> c)

(* ------------------------------------------------------------------ *)
(* Overload controller: estimator + hysteresis units.  The controller   *)
(* is clock-free, so these drive it directly with hand-fed durations    *)
(* and queue depths — fully deterministic.                              *)
(* ------------------------------------------------------------------ *)

let test_overload_estimator () =
  let c = Overload.create { Overload.default with Overload.ewma_alpha = 0.5 } in
  Alcotest.(check (float 0.)) "ewma starts at 0" 0.0 (Overload.est_exec_s c);
  Overload.note_executed c ~queued_s:0.0 ~ran_s:0.1;
  Alcotest.(check (float 1e-9)) "first sample seeds the ewma" 0.1
    (Overload.est_exec_s c);
  Overload.note_executed c ~queued_s:0.0 ~ran_s:0.3;
  Alcotest.(check (float 1e-9)) "alpha blend" 0.2 (Overload.est_exec_s c);
  (* backlog model: wait = ewma * queued / workers *)
  let v = Overload.assess c ~queued:4 ~workers:2 ~deadline_s:(Some 10.0) in
  Alcotest.(check (float 1e-9)) "backlog estimate" 0.4 v.Overload.est_wait_s;
  Alcotest.(check bool) "far from the deadline: admit" false v.Overload.shed

let test_overload_empty_queue_recovers () =
  let c = Overload.create Overload.default in
  (* a burst of terrible observed waits... *)
  for _ = 1 to 10 do
    Overload.note_executed c ~queued_s:5.0 ~ran_s:0.001
  done;
  (* ...sheds while the queue is deep *)
  let deep = Overload.assess c ~queued:8 ~workers:1 ~deadline_s:(Some 0.5) in
  Alcotest.(check bool) "deep queue sheds" true deep.Overload.shed;
  (* but once the queue drains the next query can start immediately: the
     stale observed waits must not keep the shedder latched shut *)
  let empty = Overload.assess c ~queued:0 ~workers:1 ~deadline_s:(Some 0.5) in
  Alcotest.(check (float 1e-9)) "empty queue: zero wait estimate" 0.0
    empty.Overload.est_wait_s;
  Alcotest.(check bool) "empty queue admits" false empty.Overload.shed

let test_overload_hysteresis () =
  let cfg =
    { Overload.default with Overload.enter_after = 3; Overload.exit_after = 2 }
  in
  let c = Overload.create cfg in
  Overload.note_executed c ~queued_s:0.0 ~ran_s:0.1;
  (* hot: est completion 0.1*50 + 0.1 = 5.1 over a 1s deadline; cool:
     empty queue leaves just one ewma execution, well under exit*d *)
  let hot () = Overload.assess c ~queued:50 ~workers:1 ~deadline_s:(Some 1.0) in
  let cool () = Overload.assess c ~queued:0 ~workers:1 ~deadline_s:(Some 1.0) in
  let v1 = hot () in
  Alcotest.(check bool) "one hot admission: not in yet" false v1.Overload.brownout;
  ignore (cool ());
  ignore (hot ());
  let v3 = hot () in
  Alcotest.(check bool) "cool admission reset the streak" false v3.Overload.brownout;
  let v4 = hot () in
  Alcotest.(check bool) "third consecutive hot enters" true v4.Overload.brownout;
  Alcotest.(check bool) "entered edge reported once" true v4.Overload.entered;
  Alcotest.(check bool) "in_brownout agrees" true (Overload.in_brownout c);
  let v5 = cool () in
  Alcotest.(check bool) "one cool admission: still in" true v5.Overload.brownout;
  let v6 = cool () in
  Alcotest.(check bool) "second consecutive cool exits" false v6.Overload.brownout;
  Alcotest.(check bool) "exited edge reported once" true v6.Overload.exited;
  (* deadline-free admissions have nothing to protect: report-only *)
  let v7 = Overload.assess c ~queued:50 ~workers:1 ~deadline_s:None in
  Alcotest.(check bool) "no deadline never sheds" false v7.Overload.shed

(* ------------------------------------------------------------------ *)
(* Overload behaviours through the service itself                       *)
(* ------------------------------------------------------------------ *)

let test_shed_at_admission () =
  let cfg = { Service.default with Service.controller = Some Overload.default } in
  with_service cfg (fun svc ->
      (* prime the execution-time EWMA with a deliberately slow query *)
      let slow =
        Service.submit svc (fun ~cancel:_ ~attempt:_ ~degraded:_ ->
            Unix.sleepf 0.03;
            0)
      in
      ignore (Service.await slow);
      (* a generous deadline is untouched *)
      let ok =
        Service.submit svc ~deadline_s:10.0 (fun ~cancel:_ ~attempt:_ ~degraded:_ -> 1)
      in
      Alcotest.(check bool) "generous deadline served" true
        ((Service.await ok).Service.outcome = Ok 1);
      (* a deadline below one expected execution cannot be met even on an
         idle service: shed at admission, zero engine attempts *)
      let tk =
        Service.submit svc ~deadline_s:0.002 (fun ~cancel:_ ~attempt:_ ~degraded:_ -> 2)
      in
      let rep = Service.await tk in
      check_error "estimated completion past deadline" Service.Shed rep.Service.outcome;
      Alcotest.(check int) "shedding burns no attempts" 0 rep.Service.attempts)

let test_expired_in_queue () =
  let gate = Atomic.make false in
  let started = Atomic.make false in
  let cfg = { Service.default with Service.controller = Some Overload.default } in
  with_service cfg (fun svc ->
      let blocker =
        Service.submit svc (fun ~cancel:_ ~attempt:_ ~degraded:_ ->
            Atomic.set started true;
            while not (Atomic.get gate) do
              Unix.sleepf 0.0002
            done;
            0)
      in
      wait_for started;
      (* queued behind the blocker with a deadline shorter than the block:
         the worker must find it already dead at dequeue and not run it
         (the EWMA is still unprimed here, so admission lets it through) *)
      let tk =
        Service.submit svc ~deadline_s:0.005 (fun ~cancel:_ ~attempt:_ ~degraded:_ -> 1)
      in
      Unix.sleepf 0.02;
      Atomic.set gate true;
      Alcotest.(check bool) "blocker completes" true
        ((Service.await blocker).Service.outcome = Ok 0);
      let rep = Service.await tk in
      check_error "dead at dequeue" Service.Expired_in_queue rep.Service.outcome;
      Alcotest.(check int) "zero engine attempts" 0 rep.Service.attempts;
      Alcotest.(check bool) "measured its queue wait" true (rep.Service.queued_s > 0.0))

let svc_int_tag : int Jp_cache.tag = Jp_cache.tag "test.service.int"

let test_brownout_degrades_no_publish () =
  let r = small Presets.Jokes in
  let direct = count_query r ~cancel:(Cancel.create ()) ~degraded:false in
  let ctl =
    { Overload.default with Overload.enter_after = 1; Overload.shed_margin = 4.0 }
  in
  let cfg = { Service.default with Service.controller = Some ctl } in
  let cache = Jp_cache.create () in
  let binding =
    Jp_cache.binding cache svc_int_tag
      (Jp_cache.Key.of_relations ~kind:"test.brownout" [ r ])
      ~bytes_of:(fun _ -> 16)
      ()
  in
  with_recording (fun () ->
      with_service cfg (fun svc ->
          let slow =
            Service.submit svc (fun ~cancel:_ ~attempt:_ ~degraded:_ ->
                Unix.sleepf 0.1;
                0)
          in
          ignore (Service.await slow);
          (* one expected execution (~100ms) lands between brownout_enter
             and shed_margin of a 150ms deadline: hot enough to enter
             brownout on this single admission (enter_after = 1), cheap
             enough to admit rather than shed *)
          let tk =
            Service.submit svc ~deadline_s:0.15 ~cached:binding
              (fun ~cancel ~attempt:_ ~degraded -> count_query r ~cancel ~degraded)
          in
          let rep = Service.await tk in
          (match rep.Service.outcome with
          | Ok n -> Alcotest.(check int) "browned-out answer correct" direct n
          | Error e ->
            Alcotest.failf "brownout query failed: %s" (Service.error_to_string e));
          Alcotest.(check bool) "served on the degraded path" true rep.Service.degraded;
          Alcotest.(check bool) "degraded result never published" true
            (Jp_cache.binding_find binding = None);
          Alcotest.(check bool) "brownout entry counted" true
            (Jp_obs.value Jp_obs.C.service_brownout_entered >= 1);
          Alcotest.(check bool) "brownout service counted" true
            (Jp_obs.value Jp_obs.C.service_brownout_served >= 1)))

(* Open-loop + chaos: without deadlines nothing in the run depends on the
   wall clock (no shed, no expiry, report-only controller), so the full
   outcome-shape sequence must be a pure function of the seeds even
   though arrivals pace themselves against real time. *)
let test_open_loop_deterministic () =
  let r = small Presets.Jokes in
  let nq = 24 in
  let run () =
    let ccfg = { (Chaos.default 6) with Chaos.p_transient = 0.4 } in
    let cfg =
      { Service.default with
        Service.chaos = Some ccfg;
        Service.backoff_s = 0.0002;
        Service.queue_capacity = 2 * nq;
        Service.controller = Some Overload.default }
    in
    with_service cfg (fun svc ->
        let schedule =
          Arrivals.schedule ~process:Arrivals.Poisson ~seed:5 ~rate:400.0 ~count:nq ()
        in
        let tickets = Array.make nq None in
        ignore
          (Arrivals.drive ~now:Jp_util.Timer.now ~sleep:Unix.sleepf ~schedule
             (fun i ->
               tickets.(i) <-
                 Some
                   (Service.submit svc ~key:i (fun ~cancel ~attempt:_ ~degraded ->
                        polled_count_query r ~cancel ~degraded))));
        Array.to_list tickets
        |> List.map (fun tk -> shape (Service.await (Option.get tk))))
  in
  let a = run () in
  let b = run () in
  Alcotest.(check bool) "same seeds, same outcome shapes" true (a = b)

(* ------------------------------------------------------------------ *)
(* Jp_served: the one served-workload driver behind serve/stress and    *)
(* the ABL-LOAD/CHAOS/CACHE cells.  Both clients are a pure function of *)
(* the seeds (no deadlines, so nothing depends on the wall clock), and  *)
(* the verdict is what the CLI's wrong-answer and leaked-domain exits    *)
(* read.                                                                *)
(* ------------------------------------------------------------------ *)

module Served = Jp_served

let served_workload () =
  Served.create ~flavour:Served.Auto (Served.sample ~seed:3 5 (small Presets.Jokes))

(* Twelve queries over five identities, so repeats exist for the cache. *)
let served_ident = Array.init 12 (fun i -> i * 7 mod 5)

let served_cfg =
  { Service.default with
    Service.chaos = Some { (Chaos.default 6) with Chaos.p_transient = 0.4 };
    Service.backoff_s = 0.0002;
    Service.queue_capacity = 2 * Array.length served_ident;
    Service.controller = Some Overload.default }

(* One client run on a fresh service, judged after shutdown. *)
let serve_with cfg w client =
  let svc = Service.create cfg in
  let run = Fun.protect ~finally:(fun () -> Service.shutdown svc) (fun () -> client svc) in
  Served.verdict w run

let test_served_deterministic () =
  let w = served_workload () in
  let schedule =
    Arrivals.schedule ~process:Arrivals.Poisson ~seed:5 ~rate:400.0
      ~count:(Array.length served_ident) ()
  in
  List.iter
    (fun (name, client) ->
      let once () =
        with_recording (fun () ->
            let v = serve_with served_cfg w client in
            Alcotest.(check int) (name ^ ": no wrong answers") 0 v.Served.wrong;
            Alcotest.(check bool) (name ^ ": workers spawned") true (v.Served.spawned > 0);
            Alcotest.(check int) (name ^ ": no leaked domains") v.Served.spawned
              v.Served.joined;
            let reports = v.Served.run.Served.reports in
            Alcotest.(check bool) (name ^ ": chaos fired") true
              (Array.exists (fun rep -> rep.Service.retries > 0) reports);
            Array.map (fun rep -> (shape rep, rep.Service.cache_hit)) reports)
      in
      let a = once () in
      Alcotest.(check bool) (name ^ ": same seeds, same reports") true (a = once ());
      Alcotest.(check bool) (name ^ ": cache hits iff armed") (name = "closed")
        (Array.exists snd a))
    [
      ("closed", fun svc -> Served.closed ~cache:(Jp_cache.create ()) w svc served_ident);
      ("open", fun svc -> Served.open_loop w svc ~schedule served_ident);
    ]

(* The CLI exits 1 when the verdict counts a wrong answer: an answer one
   off from the expected one must be counted. *)
let test_served_counts_wrong () =
  let w = served_workload () in
  let v = serve_with Service.default w (fun svc -> Served.closed w svc [| 0; 1; 2 |]) in
  Alcotest.(check int) "all answers right" 0 v.Served.wrong;
  Alcotest.(check int) "all completed" 3 v.Served.completed;
  let off_by_one (rep : int Service.report) =
    { rep with Service.outcome = Result.map succ rep.Service.outcome }
  in
  let run = v.Served.run in
  let v' =
    Served.verdict w
      { run with Served.reports = Array.map off_by_one run.Served.reports }
  in
  Alcotest.(check int) "every off-by-one answer is wrong" 3 v'.Served.wrong

(* A one-slot queue under a fast open-loop schedule rejects some queries
   at admission; every submission still lands in exactly one outcome. *)
let test_served_open_tally () =
  let w = served_workload () in
  let nq = 16 in
  let ident = Array.init nq (fun i -> i mod 5) in
  let cfg = { Service.default with Service.queue_capacity = 1 } in
  let schedule = Arrivals.schedule ~rate:5000.0 ~count:nq () in
  let v = serve_with cfg w (fun svc -> Served.open_loop w svc ~schedule ident) in
  let count k = Jp_metrics.Hist.count (Served.outcome v k) in
  Alcotest.(check int) "tally sums to the submissions" nq
    (List.fold_left (fun acc (_, h) -> acc + Jp_metrics.Hist.count h) 0 v.Served.outcomes);
  Alcotest.(check int) "ok + hit = completed" v.Served.completed (count "ok" + count "hit");
  Alcotest.(check int) "admitted = submitted - rejected"
    (nq - count "overloaded" - count "shed")
    (Jp_metrics.Hist.count v.Served.ran);
  Alcotest.(check int) "no wrong answers" 0 v.Served.wrong

let suite =
  [
    Alcotest.test_case "cancel token inert" `Quick test_cancel_token_inert;
    Alcotest.test_case "pre-cancelled raises" `Quick test_precancelled_engine_raises;
    Alcotest.test_case "submit/await" `Quick test_submit_await;
    Alcotest.test_case "deadline exceeded" `Quick test_deadline_exceeded;
    Alcotest.test_case "overload rejects" `Quick test_overload_rejects;
    Alcotest.test_case "client cancel" `Quick test_client_cancel;
    Alcotest.test_case "shutdown aborts queued" `Quick test_shutdown_aborts_queued;
    Alcotest.test_case "chaos plan deterministic" `Quick test_chaos_plan_deterministic;
    Alcotest.test_case "retry then success" `Quick test_retry_then_success;
    Alcotest.test_case "retries exhaust, degrade" `Quick test_retries_exhaust_then_degrade;
    Alcotest.test_case "persistent fault fails" `Quick test_persistent_fault_fails;
    Alcotest.test_case "slowdown harmless" `Quick test_slowdown_is_harmless;
    Alcotest.test_case "chaos workload properties" `Quick test_chaos_workload_properties;
    Alcotest.test_case "trace ids correlate" `Quick test_trace_ids;
    Alcotest.test_case "chaos workload deterministic" `Quick test_chaos_workload_deterministic;
    Alcotest.test_case "overload estimator" `Quick test_overload_estimator;
    Alcotest.test_case "overload empty-queue recovery" `Quick test_overload_empty_queue_recovers;
    Alcotest.test_case "overload hysteresis" `Quick test_overload_hysteresis;
    Alcotest.test_case "shed at admission" `Quick test_shed_at_admission;
    Alcotest.test_case "expired in queue" `Quick test_expired_in_queue;
    Alcotest.test_case "brownout degrades, no publish" `Quick test_brownout_degrades_no_publish;
    Alcotest.test_case "open-loop deterministic" `Quick test_open_loop_deterministic;
    Alcotest.test_case "served driver deterministic" `Quick test_served_deterministic;
    Alcotest.test_case "served verdict counts wrong" `Quick test_served_counts_wrong;
    Alcotest.test_case "served open-loop tally" `Quick test_served_open_tally;
  ]
