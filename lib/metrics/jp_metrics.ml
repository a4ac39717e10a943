module Json = Jp_obs.Json
module Timer = Jp_util.Timer

(* ------------------------------------------------------------------ *)
(* histogram data structure                                            *)

module Hist = struct
  (* Fixed base-√2 geometric bucket ladder starting at 1 µs: 64 finite
     buckets span ~1e-6 s .. ~3e3 s, and everything above lands in the
     overflow bucket.  The bounds are computed once, identically in every
     process, so bucket counts, merges and quantile reads are
     reproducible — only the observed wall-clock values vary. *)
  let n_finite = 64

  let bounds =
    let b = Array.make n_finite 1e-6 in
    let sqrt2 = Float.sqrt 2.0 in
    for i = 1 to n_finite - 1 do
      b.(i) <- b.(i - 1) *. sqrt2
    done;
    b

  let bucket_bounds () = Array.copy bounds

  type t = {
    counts : int array; (* n_finite + 1; last = overflow *)
    mutable total : int;
    mutable vsum : float;
    mutable vmax : float;
  }

  let create () =
    {
      counts = Array.make (n_finite + 1) 0;
      total = 0;
      vsum = 0.0;
      vmax = Float.neg_infinity;
    }

  (* First bucket whose upper bound is >= v (binary search on the fixed
     bounds); NaN and anything above the top bound go to overflow. *)
  let bucket_of v =
    if not (v <= bounds.(n_finite - 1)) then n_finite
    else begin
      let lo = ref 0 and hi = ref (n_finite - 1) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if v <= bounds.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end

  let observe h v =
    let i = bucket_of v in
    h.counts.(i) <- h.counts.(i) + 1;
    h.total <- h.total + 1;
    h.vsum <- h.vsum +. v;
    if v > h.vmax then h.vmax <- v

  let count h = h.total

  let sum h = h.vsum

  let max_value h = if h.total = 0 then Float.nan else h.vmax

  let quantile h q =
    if h.total = 0 then Float.nan
    else begin
      let q = Float.min 1.0 (Float.max 0.0 q) in
      let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.total))) in
      let i = ref 0 in
      let acc = ref h.counts.(0) in
      while !acc < rank do
        incr i;
        acc := !acc + h.counts.(!i)
      done;
      (* Clamp to the tracked maximum: the bucket upper bound can exceed
         every sample (p99 above max reads wrong), and min keeps both
         error bounds — vmax >= the rank's sample value. *)
      if !i = n_finite then h.vmax else Float.min bounds.(!i) h.vmax
    end

  let buckets h =
    List.init (n_finite + 1) (fun i ->
        ((if i = n_finite then Float.infinity else bounds.(i)), h.counts.(i)))

  let merge_into ~into src =
    for i = 0 to n_finite do
      into.counts.(i) <- into.counts.(i) + src.counts.(i)
    done;
    into.total <- into.total + src.total;
    into.vsum <- into.vsum +. src.vsum;
    if src.vmax > into.vmax then into.vmax <- src.vmax

  let copy h =
    { counts = Array.copy h.counts; total = h.total; vsum = h.vsum; vmax = h.vmax }

  let clear h =
    Array.fill h.counts 0 (n_finite + 1) 0;
    h.total <- 0;
    h.vsum <- 0.0;
    h.vmax <- Float.neg_infinity
end

(* ------------------------------------------------------------------ *)
(* registries                                                          *)

type histogram = { hname : string; hlock : Mutex.t; hist : Hist.t }

type gauge = { gname : string; gcell : int Atomic.t }

type snap = { ts : float; snap_seq : int; values : (string * int) list }

let registry_lock = Mutex.create ()

let histograms : histogram list ref =
  ref [] [@@jp.domain_safe "every access is guarded by registry_lock"]

let gauges : gauge list ref =
  ref [] [@@jp.domain_safe "every access is guarded by registry_lock"]

let snaps : snap list ref =
  ref [] [@@jp.domain_safe "every access is guarded by registry_lock"]

let snap_seq =
  ref 0 [@@jp.domain_safe "every access is guarded by registry_lock"]

let histogram name =
  Mutex.lock registry_lock;
  let h =
    match List.find_opt (fun h -> h.hname = name) !histograms with
    | Some h -> h
    | None ->
      let h = { hname = name; hlock = Mutex.create (); hist = Hist.create () } in
      histograms := h :: !histograms;
      h
  in
  Mutex.unlock registry_lock;
  h

let observe h v =
  if Jp_obs.recording () then begin
    Mutex.lock h.hlock;
    Hist.observe h.hist v;
    Mutex.unlock h.hlock
  end

let histogram_value h =
  Mutex.lock h.hlock;
  let c = Hist.copy h.hist in
  Mutex.unlock h.hlock;
  c

let histogram_values () =
  Mutex.lock registry_lock;
  let hs = !histograms in
  Mutex.unlock registry_lock;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map (fun h -> (h.hname, histogram_value h)) hs)

module Local = struct
  type t = { target : histogram; acc : Hist.t }

  let create target = { target; acc = Hist.create () }

  let observe l v = Hist.observe l.acc v

  let publish l =
    if Jp_obs.recording () && Hist.count l.acc > 0 then begin
      Mutex.lock l.target.hlock;
      Hist.merge_into ~into:l.target.hist l.acc;
      Mutex.unlock l.target.hlock
    end;
    Hist.clear l.acc
end

let gauge name =
  Mutex.lock registry_lock;
  let g =
    match List.find_opt (fun g -> g.gname = name) !gauges with
    | Some g -> g
    | None ->
      let g = { gname = name; gcell = Atomic.make 0 } in
      gauges := g :: !gauges;
      g
  in
  Mutex.unlock registry_lock;
  g

let set_gauge g v = if Jp_obs.recording () then Atomic.set g.gcell v

let add_gauge g d =
  if Jp_obs.recording () then ignore (Atomic.fetch_and_add g.gcell d)

let gauge_value g = Atomic.get g.gcell

let gauge_values () =
  Mutex.lock registry_lock;
  let gs = !gauges in
  Mutex.unlock registry_lock;
  List.sort
    (fun (a, _) (b, _) -> String.compare a b)
    (List.map (fun g -> (g.gname, Atomic.get g.gcell)) gs)

let snapshot ?now () =
  if Jp_obs.recording () then begin
    let values = gauge_values () in
    let ts = match now with Some t -> t | None -> Timer.now () in
    Mutex.lock registry_lock;
    snaps := { ts; snap_seq = !snap_seq; values } :: !snaps;
    Stdlib.incr snap_seq;
    Mutex.unlock registry_lock
  end

let snapshots () =
  Mutex.lock registry_lock;
  let ss = !snaps in
  Mutex.unlock registry_lock;
  let sorted =
    List.sort
      (fun a b ->
        match Float.compare a.ts b.ts with
        | 0 -> Int.compare a.snap_seq b.snap_seq
        | n -> n)
      ss
  in
  List.map (fun s -> (s.ts, s.values)) sorted

(* ------------------------------------------------------------------ *)
(* well-known instruments                                              *)

module H = struct
  let service_queued_seconds = histogram "service.queued_seconds"

  let service_ran_seconds = histogram "service.ran_seconds"
end

module G = struct
  let queue_depth = gauge "service.queue_depth"

  let inflight = gauge "service.inflight"

  let cache_bytes = gauge "cache.resident_bytes"

  let tile_bytes = gauge "tile.resident_bytes"

  let brownout = gauge "service.brownout"

  let est_wait_us = gauge "service.est_wait_us"
end

(* ------------------------------------------------------------------ *)
(* OpenMetrics text exposition                                         *)

(* Prometheus metric names admit [a-zA-Z0-9_:]; our dotted obs names map
   dots (and anything else) to underscores under a "jp_" prefix. *)
let metric_name name =
  let b = Bytes.of_string name in
  Bytes.iteri
    (fun i c ->
      let ok =
        (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
        || (c >= '0' && c <= '9')
        || c = '_'
      in
      if not ok then Bytes.set b i '_')
    b;
  "jp_" ^ Bytes.to_string b

(* Deterministic shortest-ish float rendering shared by bucket bounds and
   sums; OpenMetrics allows any decimal or scientific literal. *)
let float_str v = Printf.sprintf "%.9g" v

let exposition () =
  let b = Buffer.create 4096 in
  List.iter
    (fun (name, v) ->
      let n = metric_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s counter\n" n);
      Buffer.add_string b (Printf.sprintf "%s_total %d\n" n v))
    (Jp_obs.counter_values ());
  List.iter
    (fun (name, v) ->
      let n = metric_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s gauge\n" n);
      Buffer.add_string b (Printf.sprintf "%s %d\n" n v))
    (gauge_values ());
  List.iter
    (fun (name, h) ->
      let n = metric_name name in
      Buffer.add_string b (Printf.sprintf "# TYPE %s histogram\n" n);
      let cum = ref 0 in
      List.iter
        (fun (le, c) ->
          cum := !cum + c;
          let le_s = if le = Float.infinity then "+Inf" else float_str le in
          Buffer.add_string b
            (Printf.sprintf "%s_bucket{le=\"%s\"} %d\n" n le_s !cum))
        (Hist.buckets h);
      Buffer.add_string b (Printf.sprintf "%s_sum %s\n" n (float_str (Hist.sum h)));
      Buffer.add_string b (Printf.sprintf "%s_count %d\n" n (Hist.count h)))
    (histogram_values ());
  Buffer.add_string b "# EOF\n";
  Buffer.contents b

(* ------------------------------------------------------------------ *)
(* chrome-trace counter lane                                           *)

let counter_events ~base =
  List.concat_map
    (fun (ts, values) ->
      List.map
        (fun (name, v) ->
          Json.Obj
            [
              ("name", Json.String name);
              ("cat", Json.String "metrics");
              ("ph", Json.String "C");
              ("ts", Json.Float ((ts -. base) *. 1e6));
              ("pid", Json.Int 1);
              ("tid", Json.Int 0);
              ("args", Json.Obj [ ("value", Json.Int v) ]);
            ])
        values)
    (snapshots ())

let chrome_trace () = Jp_obs.chrome_trace ~extra:counter_events ()

let chrome_trace_string () = Json.to_string (chrome_trace ())

(* ------------------------------------------------------------------ *)
(* reset                                                               *)

let reset () =
  Mutex.lock registry_lock;
  let hs = !histograms and gs = !gauges in
  snaps := [];
  snap_seq := 0;
  Mutex.unlock registry_lock;
  List.iter
    (fun h ->
      Mutex.lock h.hlock;
      Hist.clear h.hist;
      Mutex.unlock h.hlock)
    hs;
  List.iter (fun g -> Atomic.set g.gcell 0) gs
