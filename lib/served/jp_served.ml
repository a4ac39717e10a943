module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Two_path = Joinproj.Two_path
module Cq = Jp_query.Cq
module Hist = Jp_metrics.Hist

let sample ~seed n r =
  Array.init n (fun d ->
      let g = Jp_util.Rng.create (seed + (7919 * d)) in
      let frac = 0.3 +. Jp_util.Rng.float g 0.4 in
      let keep =
        Array.init (Relation.src_count r) (fun _ -> Jp_util.Rng.float g 1.0 < frac)
      in
      Relation.restrict_src r (fun a -> keep.(a)))

type flavour = Mm | Nonmm | Ssj | Scj | Cq | Auto

type t = {
  domains : int;
  flavour : flavour;
  subs : Relation.t array;
  cq : Cq.t array;
  expected : int array;
}

let flavour_of w d =
  match w.flavour with
  | Auto -> [| Mm; Nonmm; Ssj; Scj; Cq |].(d mod 5)
  | f -> f

let engine w d =
  match flavour_of w d with
  | Mm -> "mm"
  | Nonmm -> "nonmm"
  | Ssj -> "ssj"
  | Scj -> "scj"
  | Cq | Auto -> "cq"

(* Identity [d]'s answer size; absent capabilities leave the engines on
   their plain path. *)
let count ?guard ?cancel ?cache w d =
  let sub = w.subs.(d) and domains = w.domains in
  match flavour_of w d with
  | Mm ->
    let memo = Option.map (fun c -> Jp_cache.two_path_memo c ~r:sub ~s:sub) cache in
    Pairs.count (Two_path.project ~domains ?guard ?cancel ?memo ~r:sub ~s:sub ())
  | Nonmm ->
    Pairs.count
      (Two_path.project ~domains ~strategy:Two_path.Combinatorial ?guard ?cancel
         ~r:sub ~s:sub ())
  | Ssj -> Pairs.count (Jp_ssj.Mm_ssj.join ~domains ?guard ?cancel ?cache ~c:2 sub)
  | Scj -> Pairs.count (Jp_scj.Mm_scj.join ~domains ?guard ?cancel ?cache sub)
  | Cq | Auto -> (
    let q = w.cq.(d mod Array.length w.cq) in
    let catalog = [ ("R", sub); ("S", sub); ("T", sub) ] in
    let answer = function Ok n -> n | Error e -> failwith ("cq flavour: " ^ e) in
    if q.Cq.head = [] then
      answer
        (Result.map Bool.to_int
           (Jp_query.Engine.boolean ~domains ?guard ?cancel ?cache catalog q))
    else
      answer
        (Result.map Jp_relation.Tuples.count
           (Jp_query.Engine.run ~domains ?guard ?cancel ?cache catalog q)))

let answer w d = count w d

let expected w d = w.expected.(d)

(* Acyclic, non-whole-star queries, so they exercise the decomposition
   planner: a carved 2-path stitched into Yannakakis, dangling
   variables, a boolean head. *)
let cq_pool =
  [
    "Q(a, d) :- R(a, b), S(b, c), T(c, d)";
    "Q(a) :- R(a, b), S(c, b), T(c, d)";
    "Q(a, c) :- R(a, b), S(c, b), T(c, d)";
    "Q() :- R(a, b), S(c, b)";
  ]

let create ?(domains = 1) ~flavour subs =
  let cq = Array.of_list (List.map (fun s -> Result.get_ok (Cq.parse s)) cq_pool) in
  let w = { domains; flavour; subs; cq; expected = [||] } in
  { w with expected = Array.init (Array.length subs) (answer w) }

type run = {
  ident : int array;
  reports : int Jp_service.report array;
  makespan_s : float;
}

let result_tag : int Jp_cache.tag = Jp_cache.tag "served.result"

let submit ?cache w svc i d =
  let cached c =
    Jp_cache.binding c result_tag
      (Jp_cache.Key.of_relations ~kind:("served." ^ engine w d) [ w.subs.(d) ])
      ~bytes_of:(fun _ -> 16)
      ~verify:(fun v -> v = w.expected.(d))
      ()
  in
  Jp_service.submit svc ~key:i ?cached:(Option.map cached cache)
    (fun ~cancel ~attempt:_ ~degraded ->
      let guard = if degraded then Some Jp_adaptive.Guard.safe else None in
      count ?guard ~cancel ?cache w d)

let closed ?cache w svc ident =
  let submit i d = submit ?cache w svc i d in
  let start = Jp_util.Timer.now () in
  let reports =
    if Option.is_none cache then Array.map Jp_service.await (Array.mapi submit ident)
    else Array.mapi (fun i d -> Jp_service.await (submit i d)) ident
  in
  { ident; reports; makespan_s = Jp_util.Timer.now () -. start }

let open_loop ?cache w svc ~schedule ident =
  let tickets = Array.make (Array.length schedule) None in
  let start =
    Jp_workload.Arrivals.drive ~now:Jp_util.Timer.now ~sleep:Unix.sleepf ~schedule
      (fun i -> tickets.(i) <- Some (submit ?cache w svc i ident.(i)))
  in
  let reports = Array.map (fun tk -> Jp_service.await (Option.get tk)) tickets in
  { ident; reports; makespan_s = Jp_util.Timer.now () -. start }

type verdict = {
  run : run;
  wrong : int;
  completed : int;
  outcomes : (string * Hist.t) list;
  queued : Hist.t;
  ran : Hist.t;
  e2e : Hist.t;
  goodput : float;
  spawned : int;
  joined : int;
}

let verdict w run =
  let outcomes = Hashtbl.create 8 in
  let queued = Hist.create () and ran = Hist.create () and e2e = Hist.create () in
  let wrong = ref 0 and completed = ref 0 in
  Array.iteri
    (fun i (rep : int Jp_service.report) ->
      let key =
        match rep.outcome with
        | Ok c ->
          if c <> w.expected.(run.ident.(i)) then incr wrong;
          incr completed;
          Hist.observe e2e (rep.queued_s +. rep.ran_s);
          if rep.cache_hit then "hit" else "ok"
        | Error e -> Jp_service.error_to_string e
      in
      if not (Hashtbl.mem outcomes key) then Hashtbl.add outcomes key (Hist.create ());
      Hist.observe (Hashtbl.find outcomes key) rep.ran_s;
      match rep.outcome with
      | Error (Jp_service.Overloaded | Jp_service.Shed) -> ()
      | _ ->
        Hist.observe queued rep.queued_s;
        Hist.observe ran rep.ran_s)
    run.reports;
  {
    run;
    wrong = !wrong;
    completed = !completed;
    outcomes =
      List.sort (fun (a, _) (b, _) -> String.compare a b)
        (List.of_seq (Hashtbl.to_seq outcomes));
    queued;
    ran;
    e2e;
    goodput = (if run.makespan_s > 0. then float !completed /. run.makespan_s else 0.);
    spawned = Jp_obs.value Jp_obs.C.service_workers_spawned;
    joined = Jp_obs.value Jp_obs.C.service_workers_joined;
  }

let outcome v prefix =
  let h = Hist.create () in
  List.iter
    (fun (k, o) -> if String.starts_with ~prefix k then Hist.merge_into ~into:h o)
    v.outcomes;
  h
