module Json = Jp_obs.Json

type event = {
  name : string;
  tid : int;
  domain : int;
  start : float;
  dur : float;
  self : float;
}

type t = { lock : Mutex.t; mutable events : event list; mutable n : int }

let create () = { lock = Mutex.create (); events = []; n = 0 }

(* Per-domain stack of open spans; each frame accumulates the time of
   its finished children. *)
let stack : float ref list ref Domain.DLS.key =
  Domain.DLS.new_key (fun () -> ref [])

let record t ev =
  Mutex.lock t.lock;
  t.events <- ev :: t.events;
  t.n <- t.n + 1;
  Mutex.unlock t.lock

let span t ~tid name f =
  let st = Domain.DLS.get stack in
  let children = ref 0. in
  st := children :: !st;
  let start = Jp_util.Timer.now () in
  let finish () =
    let dur = Jp_util.Timer.now () -. start in
    (match !st with
    | _ :: (parent :: _ as rest) ->
      parent := !parent +. dur;
      st := rest
    | _ -> st := []);
    record t
      {
        name;
        tid;
        domain = (Domain.self () :> int);
        start;
        dur;
        self = dur -. !children;
      };
    dur
  in
  match f () with
  | x -> (x, finish ())
  | exception e ->
    ignore (finish ());
    raise e

let count t =
  Mutex.lock t.lock;
  let n = t.n in
  Mutex.unlock t.lock;
  n

let events t =
  Mutex.lock t.lock;
  let evs = List.rev t.events in
  Mutex.unlock t.lock;
  evs

type row = { name : string; calls : int; total_s : float; self_s : float }

let self_times t =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (ev : event) ->
      let calls, total, self =
        Option.value ~default:(0, 0., 0.) (Hashtbl.find_opt tbl ev.name)
      in
      Hashtbl.replace tbl ev.name (calls + 1, total +. ev.dur, self +. ev.self))
    (events t);
  Hashtbl.fold
    (fun name (calls, total_s, self_s) acc -> { name; calls; total_s; self_s } :: acc)
    tbl []
  |> List.sort (fun a b ->
         match Float.compare b.self_s a.self_s with
         | 0 -> String.compare a.name b.name
         | c -> c)

let render_self_times t =
  let rows = self_times t in
  let all = List.fold_left (fun acc r -> acc +. r.self_s) 0. rows in
  let ms s = Printf.sprintf "%.3f" (s *. 1e3) in
  Jp_util.Tablefmt.render
    ~header:[ "span"; "calls"; "total_ms"; "self_ms"; "self_share" ]
    ~rows:
      (List.map
         (fun r ->
           [
             r.name;
             string_of_int r.calls;
             ms r.total_s;
             ms r.self_s;
             Printf.sprintf "%.1f%%"
               (if all > 0. then 100. *. r.self_s /. all else 0.);
           ])
         rows)

let chrome_trace t =
  let evs = events t in
  let base = List.fold_left (fun acc (ev : event) -> Float.min acc ev.start) infinity evs in
  let us s = Json.Float (Float.round (s *. 1e7) /. 10.) in
  Json.Obj
    [
      ( "traceEvents",
        Json.List
          (List.map
             (fun (ev : event) ->
               Json.Obj
                 [
                   ("name", Json.String ev.name);
                   ("ph", Json.String "X");
                   ("ts", us (ev.start -. base));
                   ("dur", us ev.dur);
                   ("pid", Json.Int 1);
                   ("tid", Json.Int ev.domain);
                   ("args", Json.Obj [ ("trace_id", Json.Int ev.tid) ]);
                 ])
             evs) );
      ("displayTimeUnit", Json.String "ms");
    ]
