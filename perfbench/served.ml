(* served-open: Poisson open-loop arrivals at a fixed rate into
   Jp_service — one worker domain, engines at 1 domain, the main domain
   replaying the arrival schedule, the overload controller armed with a
   per-query deadline and Jp_cache armed.

   A query's identity names one of four query kinds (2-path MMJoin, SSJ
   c=2, SCJ, and the 2-path CQ through Jp_query.Engine) and one seeded
   30-70% source sub-relation of jokes@0.25.  Some queries repeat an
   earlier identity and can be answered from the cache.  Every answer is
   reduced to a checksum of its full result inside the worker and
   compared with a reference computed at set-up by an independent,
   non-MM path. *)

module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Presets = Jp_workload.Presets
module Arrivals = Jp_workload.Arrivals
module Two_path = Joinproj.Two_path
module Engine = Jp_query.Engine
module Rng = Jp_util.Rng
module Timer = Jp_util.Timer
module Stats = Perfbench.Stats
module Checksum = Perfbench.Checksum
module Spans = Perfbench.Spans

let source_scale = 0.25

(* The fixed arrival rate.  One worker answers this mix at about
   140-220/s depending on the machine's speed; at 110/s a slowdown of 1.3x
   already tipped the service into shedding (see README.md). *)
let rate = 55.

let deadline_s = 0.5

let queue_capacity = 256

(* Query identities follow a stationary reuse model: each query re-issues
   an earlier one with probability [repeat_share], picking how far back
   by a Zipf([zipf_exponent]) draw over the last [reuse_window] queries
   (recent queries are the popular ones), and is otherwise new.  Unlike
   a fixed Zipf pool, whose hit ratio climbs as the cache warms, this
   keeps the share of hits (about 28%) the same from the first window
   of a run to the last. *)
let repeat_share = 0.3

let reuse_window = 256

let zipf_exponent = 1.0

let cache_budget_mb = 256

type kind = Mm | Ssj | Scj | Cq

let kinds = [| Mm; Ssj; Scj; Cq |]

let kind_name = function Mm -> "mm" | Ssj -> "ssj" | Scj -> "scj" | Cq -> "cq"

let cq = lazy (Result.get_ok (Jp_query.Cq.parse "Q(a, c) :- R(a, b), S(c, b)"))

let catalog sub = [ ("R", sub); ("S", sub) ]

(* The engines under test.  [degraded] is the service's final attempt,
   which must take the safe non-matrix path. *)
let answer ?sp ?(note_plan = ignore) ~tid ?cache ~cancel ~degraded kind sub =
  let guard = if degraded then Some Jp_adaptive.Guard.safe else None in
  let span name f =
    match sp with Some sp -> fst (Spans.span sp ~tid name f) | None -> f ()
  in
  match kind with
  | Mm ->
    let memo = Option.map (fun c -> Jp_cache.two_path_memo c ~r:sub ~s:sub) cache in
    let res =
      span "two_path.project" (fun () ->
          Two_path.project ~domains:1 ?guard ~cancel ?memo ~r:sub ~s:sub ())
    in
    span "checksum" (fun () -> Checksum.of_pairs res)
  | Ssj ->
    let res =
      span "ssj.mm_join" (fun () ->
          Jp_ssj.Mm_ssj.join ~domains:1 ?guard ~cancel ?cache ~c:2 sub)
    in
    span "checksum" (fun () -> Checksum.of_pairs res)
  | Scj ->
    let res =
      span "scj.mm_join" (fun () ->
          Jp_scj.Mm_scj.join ~domains:1 ?guard ~cancel ?cache sub)
    in
    span "checksum" (fun () -> Checksum.of_pairs res)
  | Cq ->
    let q = Lazy.force cq in
    (match sp with
    | Some sp ->
      let _, dt =
        Spans.span sp ~tid "cq.plan" (fun () ->
            Engine.plan_of ~domains:1 ~catalog:(catalog sub) q)
      in
      note_plan dt
    | None -> ());
    let res =
      span "engine.run" (fun () ->
          Engine.run ~domains:1 ?guard ~cancel ?cache (catalog sub) q)
    in
    (match res with
    | Ok ts -> span "checksum" (fun () -> Checksum.of_tuples ts)
    | Error e -> failwith ("cq: " ^ e))

(* Independent references: the bitset baseline for the 2-path and the
   CQ (whose answer is the same 2-path, as tuples), and the combinatorial
   (non-MM) counted join-project for SSJ and SCJ with the filters written
   out here. *)
let reference kind sub =
  let counted () =
    Two_path.project_counts ~domains:1 ~strategy:Two_path.Combinatorial ~r:sub
      ~s:sub ()
  in
  match kind with
  | Mm -> Checksum.of_pairs (Jp_baselines.Bitset_engine.two_path ~r:sub ~s:sub ())
  | Ssj ->
    let l = ref [] in
    Counted_pairs.iter (fun a b k -> if a < b && k >= 2 then l := (a, b) :: !l) (counted ());
    Checksum.of_pair_list !l
  | Scj ->
    let l = ref [] in
    Counted_pairs.iter
      (fun a b k -> if a <> b && k = Relation.deg_src sub a then l := (a, b) :: !l)
      (counted ());
    Checksum.of_pair_list !l
  | Cq ->
    let pairs = Jp_baselines.Bitset_engine.two_path ~r:sub ~s:sub () in
    let acc = ref Checksum.empty in
    Pairs.iter (fun a c -> acc := Checksum.add_tuple !acc [| a; c |]) pairs;
    !acc

(* The seeded workload: arrival schedule, identity per query, and the
   sub-relation behind each identity that the schedule draws. *)
type plan = {
  schedule : float array;
  ident : int array;  (* query -> identity *)
  source : Relation.t;
  seed : int;
}

let kind_of_ident id = kinds.(id mod Array.length kinds)

let sub_of_ident id = id / Array.length kinds

(* The sub-relation behind an identity: a seeded 30-70% subset of the
   source's sets.  Queries build it as their first step, so only the
   source stays resident. *)
let sub_relation plan id =
  let d = sub_of_ident id in
  let g = Rng.create (plan.seed + (7919 * (d + 1))) in
  let frac = 0.3 +. Rng.float g 0.4 in
  let keep = Array.init (Relation.src_count plan.source) (fun _ -> Rng.float g 1.0 < frac) in
  Relation.restrict_src plan.source (fun a -> keep.(a))

let make_plan ~seed ~rate ~seconds source =
  let count = max 1 (int_of_float (Float.ceil (rate *. seconds))) in
  let schedule = Arrivals.schedule ~process:Arrivals.Poisson ~seed ~rate ~count () in
  let z = Jp_workload.Zipf.create ~exponent:zipf_exponent reuse_window in
  let g = Rng.create (seed + 13) in
  let fresh = ref 0 in
  let ident = Array.make count 0 in
  for i = 0 to count - 1 do
    let lag = 1 + Jp_workload.Zipf.sample z g in
    if Rng.float g 1.0 < repeat_share && lag <= i then ident.(i) <- ident.(i - lag)
    else begin
      ident.(i) <- !fresh;
      incr fresh
    end
  done;
  { schedule; ident; source; seed }

let service_config =
  {
    Jp_service.default with
    workers = 1;
    queue_capacity;
    default_deadline_s = Some deadline_s;
    controller = Some Jp_service.Overload.default;
  }

let fresh_cache () = Jp_cache.create ~config:(Jp_cache.with_budget_mb cache_budget_mb) ()

let result_tag : Checksum.t Jp_cache.tag = Jp_cache.tag "perfbench.result"

(* What the worker saw of one executed query (traced phase only):
   engine work counters, and the planner time of a CQ. *)
type seen = { counters : int array; cq_plan_s : float option }

type phase = {
  reports : Checksum.t Jp_service.report array;
  lat_s : float array;  (* latency from due of correct answers, in query order *)
  work_cpu_s : float array;  (* process CPU of each executed query's attempts *)
  late_s : float array;  (* submit - due, every query *)
  makespan : float;
  cpu_s : float;  (* process CPU seconds over the phase *)
  ok : int;
  wrong : int;
  errors : (string * int) list;
  find_s : float array;  (* timed binding_find, traced phase *)
  seen : seen option array;
  cache_stats : Jp_cache.stats;
}

let run_phase ?sp ~expect ~cache ~svc plan =
  let n = Array.length plan.schedule in
  let tickets = Array.make n None in
  let submitted = Array.make n 0. in
  let seen = Array.make n None in
  let work_cpu = Array.make n 0. in
  let find_s = ref [] in
  let submit i =
    let id = plan.ident.(i) in
    let kind = kind_of_ident id in
    let key = Jp_cache.Key.v ~kind:"perfbench.result" ~params:[ id ] () in
    let binding =
      Jp_cache.binding cache result_tag key
        ~bytes_of:(fun _ -> 16)
        ~verify:(fun cs -> Checksum.equal cs expect.(id))
        ()
    in
    (match sp with
    | Some sp ->
      let _, dt = Spans.span sp ~tid:i "cache.find" (fun () -> Jp_cache.binding_find binding) in
      find_s := dt :: !find_s
    | None -> ());
    submitted.(i) <- Timer.now ();
    tickets.(i) <-
      Some
        (Jp_service.submit svc ~key:i ~cached:binding (fun ~cancel ~attempt:_ ~degraded ->
             let c0 = Common.cpu_now () in
             Fun.protect ~finally:(fun () ->
                 work_cpu.(i) <- work_cpu.(i) +. (Common.cpu_now () -. c0))
             @@ fun () ->
             match sp with
             | None -> answer ~tid:i ~cache ~cancel ~degraded kind (sub_relation plan id)
             | Some sp ->
               fst
                 (Spans.span sp ~tid:i ("query." ^ kind_name kind) (fun () ->
                      let before = Common.snapshot () in
                      let cq_plan_s = ref None in
                      let sub, _ = Spans.span sp ~tid:i "sub_relation" (fun () -> sub_relation plan id) in
                      let cs =
                        answer ~sp ~note_plan:(fun dt -> cq_plan_s := Some dt) ~tid:i
                          ~cache ~cancel ~degraded kind sub
                      in
                      seen.(i) <-
                        Some
                          {
                            counters = Common.delta before (Common.snapshot ());
                            cq_plan_s = !cq_plan_s;
                          };
                      cs))))
  in
  let cpu0 = Common.cpu_now () in
  let start = Arrivals.drive ~now:Timer.now ~sleep:Unix.sleepf ~schedule:plan.schedule submit in
  let reports = Array.map (fun t -> Jp_service.await (Option.get t)) tickets in
  let makespan = Timer.now () -. start in
  let cpu_s = Common.cpu_now () -. cpu0 in
  let lat = ref [] and ok = ref 0 and wrong = ref 0 and errors = Hashtbl.create 8 in
  let late_s = Array.init n (fun i -> Float.max 0. (submitted.(i) -. (start +. plan.schedule.(i)))) in
  Array.iteri
    (fun i (rep : Checksum.t Jp_service.report) ->
      match rep.outcome with
      | Ok cs ->
        if Checksum.equal cs expect.(plan.ident.(i)) then begin
          incr ok;
          lat :=
            Stats.latency_from_due ~due:(start +. plan.schedule.(i))
              ~submitted:submitted.(i) ~queued_s:rep.queued_s ~ran_s:rep.ran_s
            :: !lat
        end
        else incr wrong
      | Error ((Jp_service.Failed _ | Jp_service.Cancelled) as e) ->
        (* No chaos is armed and every ticket is awaited before the
           service shuts down, so neither is load: an engine raised (the
           service retries nothing else) or the service lost the query.
           Both are program faults and fail the run like a wrong answer. *)
        if !wrong < 3 then Printf.printf "query %d: %s\n" i (Jp_service.error_to_string e);
        incr wrong
      | Error e ->
        let k = Jp_service.error_to_string e in
        Hashtbl.replace errors k (1 + Option.value ~default:0 (Hashtbl.find_opt errors k)))
    reports;
  let executed =
    List.filter
      (fun i -> (not reports.(i).Jp_service.cache_hit) && Result.is_ok reports.(i).outcome)
      (List.init n Fun.id)
  in
  {
    reports;
    lat_s = Array.of_list (List.rev !lat);
    work_cpu_s = Array.of_list (List.map (fun i -> work_cpu.(i)) executed);
    late_s;
    makespan;
    cpu_s;
    ok = !ok;
    wrong = !wrong;
    errors = Hashtbl.fold (fun k v acc -> (k, v) :: acc) errors [];
    find_s = Array.of_list !find_s;
    seen;
    cache_stats = Jp_cache.stats cache;
  }

let errors_total p = List.fold_left (fun acc (_, v) -> acc + v) 0 p.errors

let p50_or_zero xs = if Array.length xs = 0 then 0. else Stats.median xs

let tail_or_zero xs = if Array.length xs = 0 then 0. else (Stats.tail xs).Stats.value

let layers ~untraced (p : phase) =
  let n = Array.length p.reports in
  let executed =
    List.filter
      (fun i -> (not p.reports.(i).Jp_service.cache_hit) && Result.is_ok p.reports.(i).outcome)
      (List.init n Fun.id)
  in
  let field f = Array.of_list (List.map (fun i -> f p.reports.(i)) executed) in
  let queued = field (fun r -> r.Jp_service.queued_s) in
  let ran = field (fun r -> r.Jp_service.ran_s) in
  let hits = Array.fold_left (fun acc r -> if r.Jp_service.cache_hit then acc + 1 else acc) 0 p.reports in
  let retries = Array.fold_left (fun acc r -> acc + r.Jp_service.retries) 0 p.reports in
  let count_err k = float_of_int (Option.value ~default:0 (List.assoc_opt k p.errors)) in
  let seen = List.filter_map (fun i -> p.seen.(i)) (List.init n Fun.id) in
  let nseen = max 1 (List.length seen) in
  let counter_mean c =
    float_of_int (List.fold_left (fun acc s -> acc + s.counters.(c)) 0 seen)
    /. float_of_int nseen
  in
  let counters = List.mapi (fun c (name, _) -> (name, counter_mean c)) Common.work_counters in
  let hits_c = List.assoc "dedup.stamp_hits" counters
  and misses_c = List.assoc "dedup.stamp_misses" counters in
  let cq_plan = Array.of_list (List.filter_map (fun s -> s.cq_plan_s) seen) in
  [
    ("service.queue_ms_p50", Common.ms (p50_or_zero queued));
    ("service.queue_ms_tail", Common.ms (tail_or_zero queued));
    ("service.run_ms_p50", Common.ms (p50_or_zero ran));
    ("service.run_ms_tail", Common.ms (tail_or_zero ran));
    ("service.retries", float_of_int retries);
    ("service.shed", count_err "shed");
    ("service.expired", count_err "expired-in-queue");
    ("service.deadline", count_err "deadline");
    ("cache.hit_ratio", float_of_int hits /. float_of_int (max 1 n));
    ("cache.bytes", float_of_int p.cache_stats.Jp_cache.bytes);
    ("cache.evictions", float_of_int p.cache_stats.Jp_cache.evictions);
    ("cache.find_us", 1e6 *. p50_or_zero p.find_s);
    ("cq.plan_ms", Common.ms (p50_or_zero cq_plan));
    ("driver.late_ms_tail", Common.ms (tail_or_zero p.late_s));
    ("dedup.useful_ratio", Common.useful_ratio ~hits:hits_c ~misses:misses_c);
    ( "error_rate",
      float_of_int (errors_total p + p.wrong) /. float_of_int (max 1 n) );
    ( "obs.overhead_pct",
      Common.overhead_pct ~untraced:(p50_or_zero untraced.lat_s)
        ~traced:(p50_or_zero p.lat_s) );
  ]
  @ counters

(* Per-kind miss service time: ran_s of executed queries of each kind. *)
let kind_layers (p : phase) plan =
  List.map
    (fun k ->
      let xs =
        List.filter_map
          (fun i ->
            let r = p.reports.(i) in
            if kind_of_ident plan.ident.(i) = k && (not r.Jp_service.cache_hit)
               && Result.is_ok r.outcome
            then Some r.Jp_service.ran_s
            else None)
          (List.init (Array.length p.reports) Fun.id)
      in
      ("kind." ^ kind_name k ^ "_ms", Common.ms (p50_or_zero (Array.of_list xs))))
    (Array.to_list kinds)

let print_phase label (p : phase) =
  let n = Array.length p.reports in
  let hits = Array.fold_left (fun acc r -> if r.Jp_service.cache_hit then acc + 1 else acc) 0 p.reports in
  let busy = Array.fold_left (fun acc r -> acc +. r.Jp_service.ran_s) 0. p.reports in
  Printf.printf
    "%s: %d queries, %d ok, %d wrong, %d hits (%.1f%%), errors [%s], makespan %.2fs, worker busy %.1f%%\n"
    label n p.ok p.wrong hits
    (100. *. float_of_int hits /. float_of_int (max 1 n))
    (String.concat "; " (List.map (fun (k, v) -> Printf.sprintf "%s=%d" k v) p.errors))
    p.makespan (100. *. busy /. p.makespan);
  Format.printf "  cache: %a@." Jp_cache.pp_stats p.cache_stats

let never_mm_checks = 2

(* References for every distinct identity the schedule draws, in order of
   first appearance, computed on two domains (set-up work, outside every
   measured window).  Each domain writes its own slots of [expect]. *)
let references plan =
  let seen = Hashtbl.create 64 in
  let distinct =
    Array.of_list
      (List.rev
         (Array.fold_left
            (fun acc id ->
              if Hashtbl.mem seen id then acc
              else begin
                Hashtbl.replace seen id ();
                id :: acc
              end)
            [] plan.ident))
  in
  let expect = Array.make (Array.fold_left max 0 plan.ident + 1) Checksum.empty in
  let fill parity () =
    Array.iteri
      (fun k id ->
        if k land 1 = parity then
          expect.(id) <- reference (kind_of_ident id) (sub_relation plan id))
      distinct
  in
  let other = Domain.spawn (fill 1) in
  fill 0 ();
  Domain.join other;
  (expect, distinct)

let run ~seed ~seconds ~trace sp =
  let phase_seconds = if trace then seconds /. 2. else seconds in
  let (plan, cache, svc), setup_cpu_s, setup_wall_s =
    Common.timed_setup ~repeats:9
      ~discard:(fun (_, _, svc) -> Jp_service.shutdown svc)
      (fun () ->
        (* The source is the preset at its fixed default seed: the run
           seed varies the query stream, not the data. *)
        let source = Presets.load ~scale:source_scale Presets.Jokes in
        let plan = make_plan ~seed ~rate ~seconds:phase_seconds source in
        let cache = fresh_cache () in
        let svc = Jp_service.create service_config in
        (plan, cache, svc))
  in
  let expect, distinct = references plan in
  (* The bitset reference stands in for the CQ's Never_mm plan, which is
     ~30x slower than the query itself; it is cross-checked against
     Never_mm on the first few CQ identities. *)
  let policy_wrong =
    List.length
      (List.filter
         (fun id ->
           let sub = sub_relation plan id in
           match
             Engine.run ~domains:1 ~policy:Jp_query.Planner.Never_mm (catalog sub)
               (Lazy.force cq)
           with
           | Ok ts -> not (Checksum.equal (Checksum.of_tuples ts) expect.(id))
           | Error _ -> true)
         (List.filteri
            (fun k _ -> k < never_mm_checks)
            (List.filter (fun id -> kind_of_ident id = Cq) (Array.to_list distinct))))
  in
  if policy_wrong > 0 then
    Printf.printf "CQ reference disagrees with the Never_mm plan on %d identities\n"
      policy_wrong;
  Printf.printf
    "rate %.0f/s, %d queries over %d distinct identities (sub-relations of jokes@%.2f), deadline %.0f ms, cache budget %d MiB\n"
    rate (Array.length plan.ident) (Array.length distinct)
    source_scale (deadline_s *. 1e3) cache_budget_mb;
  let untraced = run_phase ~expect ~cache ~svc plan in
  Jp_service.shutdown svc;
  print_phase "untraced" untraced;
  let traced =
    if trace then begin
      let cache = fresh_cache () in
      let svc = Jp_service.create service_config in
      Jp_obs.enable ();
      let p = run_phase ~sp ~expect ~cache ~svc plan in
      Jp_service.shutdown svc;
      Jp_obs.disable ();
      Jp_obs.reset ();
      print_phase "traced" p;
      Some p
    end
    else None
  in
  let phases = untraced :: Option.to_list traced in
  let attempted = List.fold_left (fun acc p -> acc + Array.length p.reports) 0 phases in
  let wrong = List.fold_left (fun acc p -> acc + p.wrong) policy_wrong phases in
  let errors = List.fold_left (fun acc p -> acc + errors_total p) 0 phases in
  {
    Common.setup_cpu_s;
    setup_wall_s;
    cpu_per_query_s = untraced.cpu_s /. float_of_int (max 1 untraced.ok);
    cpu = untraced.work_cpu_s;
    qps = float_of_int untraced.ok /. untraced.makespan;
    wall = untraced.lat_s;
    attempted;
    failed = wrong + errors;
    wrong;
    layers =
      (match traced with
      | Some p -> layers ~untraced p @ kind_layers p plan
      | None -> []);
  }
