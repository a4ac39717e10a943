(* Jp_metrics: the deterministic parts of the metrics layer.  Bucket
   boundaries, quantile error bounds, merge commutativity, recording
   gates, Local accumulate/publish equivalence, fake-clock snapshot
   ordering and the OpenMetrics exposition are all exact; wall-clock
   values never enter these tests. *)

module Metrics = Jp_metrics
module Hist = Jp_metrics.Hist
module Rng = Jp_util.Rng

let sqrt2 = sqrt 2.

let with_recording f =
  Jp_obs.reset ();
  Metrics.reset ();
  Jp_obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Jp_obs.disable ();
      Jp_obs.reset ();
      Metrics.reset ())
    f

(* Seeded samples in [1e-5, 10]: safely inside the finite bucket range so
   the sqrt-2 error bound applies without floor/overflow special cases. *)
let samples ~seed n =
  let rng = Rng.create seed in
  Array.init n (fun _ -> 1e-5 +. Rng.float rng 10.)

(* ------------------------------------------------------------------ *)
(* Bucket ladder                                                       *)
(* ------------------------------------------------------------------ *)

let test_bucket_bounds () =
  let b = Hist.bucket_bounds () in
  Alcotest.(check int) "64 finite bounds" 64 (Array.length b);
  Alcotest.(check (float 1e-12)) "first bound is 1 microsecond" 1e-6 b.(0);
  for i = 1 to Array.length b - 1 do
    Alcotest.(check bool)
      (Printf.sprintf "bound %d grows" i)
      true
      (b.(i) > b.(i - 1));
    Alcotest.(check (float 1e-9))
      (Printf.sprintf "bound %d ratio is sqrt 2" i)
      sqrt2
      (b.(i) /. b.(i - 1))
  done;
  (* the ladder spans at least 1 microsecond .. 45 minutes *)
  Alcotest.(check bool) "top bound covers long queries" true
    (b.(Array.length b - 1) > 2700.);
  (* bucket_bounds hands out fresh copies: mutation must not leak *)
  b.(0) <- 42.;
  Alcotest.(check (float 1e-12)) "bounds are a fresh copy" 1e-6
    (Hist.bucket_bounds ()).(0)

let test_observe_basics () =
  let h = Hist.create () in
  Alcotest.(check int) "empty count" 0 (Hist.count h);
  Alcotest.(check bool) "empty max is nan" true (Float.is_nan (Hist.max_value h));
  Alcotest.(check bool) "empty quantile is nan" true
    (Float.is_nan (Hist.quantile h 0.5));
  List.iter (Hist.observe h) [ 0.002; 0.004; 1.5 ];
  Alcotest.(check int) "count" 3 (Hist.count h);
  Alcotest.(check (float 1e-12)) "sum" 1.506 (Hist.sum h);
  Alcotest.(check (float 1e-12)) "max" 1.5 (Hist.max_value h);
  let total = List.fold_left (fun acc (_, c) -> acc + c) 0 (Hist.buckets h) in
  Alcotest.(check int) "buckets account for every sample" 3 total;
  (* extremes: below the floor and above the ceiling both land somewhere *)
  Hist.observe h 1e-9;
  Hist.observe h 1e9;
  Alcotest.(check int) "extremes counted" 5 (Hist.count h);
  let inf_bucket = List.assoc infinity (Hist.buckets h) in
  Alcotest.(check int) "overflow bucket holds the huge sample" 1 inf_bucket;
  Alcotest.(check (float 1e-3)) "overflow quantile reports tracked max" 1e9
    (Hist.quantile h 1.0);
  Hist.clear h;
  Alcotest.(check int) "clear empties" 0 (Hist.count h)

(* Nearest-rank exact quantile over a sorted copy, the reference the
   histogram estimate is checked against. *)
let exact_quantile sorted q =
  let n = Array.length sorted in
  let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int n))) in
  sorted.(min (n - 1) (rank - 1))

let test_quantile_error_bound () =
  let xs = samples ~seed:11 1000 in
  let h = Hist.create () in
  Array.iter (Hist.observe h) xs;
  let sorted = Array.copy xs in
  Array.sort Float.compare sorted;
  List.iter
    (fun q ->
      let exact = exact_quantile sorted q in
      let est = Hist.quantile h q in
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f estimate >= exact" q)
        true (est >= exact);
      Alcotest.(check bool)
        (Printf.sprintf "q=%.2f estimate <= exact * sqrt 2" q)
        true
        (est <= exact *. sqrt2 *. (1. +. 1e-9)))
    [ 0.; 0.01; 0.25; 0.5; 0.9; 0.95; 0.99; 1.0 ]

let test_merge_deterministic () =
  let xs = samples ~seed:13 400 in
  let ha = Hist.create () and hb = Hist.create () and hall = Hist.create () in
  Array.iteri
    (fun i v ->
      Hist.observe (if i mod 2 = 0 then ha else hb) v;
      Hist.observe hall v)
    xs;
  let ab = Hist.copy ha in
  Hist.merge_into ~into:ab hb;
  let ba = Hist.copy hb in
  Hist.merge_into ~into:ba ha;
  Alcotest.(check bool) "merge is commutative on buckets" true
    (Hist.buckets ab = Hist.buckets ba);
  Alcotest.(check bool) "merge equals direct observation" true
    (Hist.buckets ab = Hist.buckets hall);
  Alcotest.(check int) "merged count" (Array.length xs) (Hist.count ab);
  Alcotest.(check (float 1e-9)) "merged sum" (Hist.sum hall) (Hist.sum ab);
  Alcotest.(check (float 1e-12)) "merged max" (Hist.max_value hall)
    (Hist.max_value ab);
  List.iter
    (fun q ->
      Alcotest.(check (float 0.))
        (Printf.sprintf "q=%.2f identical after merge" q)
        (Hist.quantile hall q) (Hist.quantile ab q))
    [ 0.5; 0.95; 0.99 ];
  Alcotest.(check int) "merge source unchanged" 200 (Hist.count hb)

(* ------------------------------------------------------------------ *)
(* Registered layer: gating, Local publish, gauges                     *)
(* ------------------------------------------------------------------ *)

let test_recording_gate () =
  Jp_obs.reset ();
  Metrics.reset ();
  Jp_obs.disable ();
  let h = Metrics.histogram "test.gate_seconds" in
  let g = Metrics.gauge "test.gate_depth" in
  Metrics.observe h 1.0;
  Metrics.set_gauge g 5;
  Metrics.add_gauge g 3;
  Metrics.snapshot ~now:1.0 ();
  Alcotest.(check int) "observe dropped while off" 0
    (Hist.count (Metrics.histogram_value h));
  Alcotest.(check int) "gauge updates dropped while off" 0
    (Metrics.gauge_value g);
  Alcotest.(check int) "snapshot dropped while off" 0
    (List.length (Metrics.snapshots ()));
  with_recording (fun () ->
      let h = Metrics.histogram "test.gate_seconds" in
      Metrics.observe h 1.0;
      Alcotest.(check int) "observe lands while on" 1
        (Hist.count (Metrics.histogram_value h)))

let test_local_publish () =
  with_recording (fun () ->
      let xs = samples ~seed:17 256 in
      let direct = Metrics.histogram "test.local_direct_seconds" in
      let pooled = Metrics.histogram "test.local_pooled_seconds" in
      Array.iter (Metrics.observe direct) xs;
      let acc = Metrics.Local.create pooled in
      Array.iter (Metrics.Local.observe acc) xs;
      Alcotest.(check int) "nothing published before the boundary" 0
        (Hist.count (Metrics.histogram_value pooled));
      Metrics.Local.publish acc;
      Alcotest.(check bool) "publish equals direct observation" true
        (Hist.buckets (Metrics.histogram_value pooled)
        = Hist.buckets (Metrics.histogram_value direct));
      (* publish clears the accumulator: publishing again adds nothing *)
      Metrics.Local.publish acc;
      Alcotest.(check int) "second publish is empty"
        (Array.length xs)
        (Hist.count (Metrics.histogram_value pooled)))

let test_registry_find_or_create () =
  with_recording (fun () ->
      let a = Metrics.histogram "test.same_seconds" in
      let b = Metrics.histogram "test.same_seconds" in
      Metrics.observe a 1.0;
      Metrics.observe b 2.0;
      Alcotest.(check int) "same name, same histogram" 2
        (Hist.count (Metrics.histogram_value a));
      Alcotest.(check bool) "listed once" true
        (List.length
           (List.filter
              (fun (n, _) -> n = "test.same_seconds")
              (Metrics.histogram_values ()))
        = 1))

(* ------------------------------------------------------------------ *)
(* Snapshots under a fake clock                                        *)
(* ------------------------------------------------------------------ *)

let test_snapshot_fake_clock () =
  with_recording (fun () ->
      let g = Metrics.gauge "test.snap_depth" in
      Metrics.set_gauge g 1;
      Metrics.snapshot ~now:2.0 ();
      Metrics.set_gauge g 7;
      Metrics.snapshot ~now:1.0 ();
      Metrics.snapshot ~now:1.0 ();
      let snaps = Metrics.snapshots () in
      Alcotest.(check int) "three snapshots" 3 (List.length snaps);
      Alcotest.(check (list (float 0.))) "sorted by timestamp" [ 1.0; 1.0; 2.0 ]
        (List.map fst snaps);
      let value_at i =
        List.assoc "test.snap_depth" (snd (List.nth snaps i))
      in
      (* values are captured at call time: the ts=2 snapshot (recorded
         first) saw 1; the tied ts=1 snapshots keep recording order *)
      Alcotest.(check int) "tied snapshots keep recording order" 7 (value_at 0);
      Alcotest.(check int) "second tied snapshot" 7 (value_at 1);
      Alcotest.(check int) "late timestamp holds the early value" 1
        (value_at 2))

(* ------------------------------------------------------------------ *)
(* OpenMetrics exposition                                              *)
(* ------------------------------------------------------------------ *)

let lines s = String.split_on_char '\n' s |> List.filter (fun l -> l <> "")

let test_exposition_golden () =
  with_recording (fun () ->
      let h = Metrics.histogram "test.golden_seconds" in
      let g = Metrics.gauge "test.golden_depth" in
      List.iter (Metrics.observe h) [ 1e-6; 1.0; 2.0 ];
      Metrics.set_gauge g 7;
      let out = Metrics.exposition () in
      let ls = lines out in
      (* the golden subset: exact expected lines for our instruments,
         built from the published bucket ladder and %.9g formatting *)
      Alcotest.(check bool) "gauge TYPE line" true
        (List.mem "# TYPE jp_test_golden_depth gauge" ls);
      Alcotest.(check bool) "gauge sample line" true
        (List.mem "jp_test_golden_depth 7" ls);
      Alcotest.(check bool) "histogram TYPE line" true
        (List.mem "# TYPE jp_test_golden_seconds histogram" ls);
      let bounds = Hist.bucket_bounds () in
      let cumulative b =
        (if 1e-6 <= b then 1 else 0)
        + (if 1.0 <= b then 1 else 0)
        + if 2.0 <= b then 1 else 0
      in
      let expected_buckets =
        Array.to_list
          (Array.map
             (fun b ->
               Printf.sprintf "jp_test_golden_seconds_bucket{le=\"%.9g\"} %d" b
                 (cumulative b))
             bounds)
        @ [ "jp_test_golden_seconds_bucket{le=\"+Inf\"} 3" ]
      in
      let actual_buckets =
        List.filter
          (fun l ->
            String.length l > 30
            && String.sub l 0 30 = "jp_test_golden_seconds_bucket{")
          ls
      in
      Alcotest.(check (list string)) "bucket lines, in ladder order"
        expected_buckets actual_buckets;
      Alcotest.(check bool) "sum line" true
        (List.mem (Printf.sprintf "jp_test_golden_seconds_sum %.9g" 3.000001) ls);
      Alcotest.(check bool) "count line" true
        (List.mem "jp_test_golden_seconds_count 3" ls);
      (* document-level grammar *)
      Alcotest.(check bool) "terminated by # EOF" true
        (match List.rev ls with "# EOF" :: _ -> true | _ -> false);
      Alcotest.(check bool) "ends with newline" true
        (String.length out > 0 && out.[String.length out - 1] = '\n');
      List.iter
        (fun l ->
          let ok =
            String.length l >= 2
            && (String.sub l 0 2 = "# "
               || String.contains l ' '
                  && l.[0] <> ' '
                  && (let c = l.[0] in
                      (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'))
          in
          Alcotest.(check bool)
            (Printf.sprintf "line is comment or sample: %s" l)
            true ok)
        ls)

let test_exposition_counters () =
  with_recording (fun () ->
      Jp_obs.incr Jp_obs.C.service_submitted;
      Jp_obs.incr Jp_obs.C.service_submitted;
      let ls = lines (Metrics.exposition ()) in
      Alcotest.(check bool) "obs counters exported as counters" true
        (List.mem "# TYPE jp_service_submitted counter" ls);
      Alcotest.(check bool) "counter sample uses _total" true
        (List.mem "jp_service_submitted_total 2" ls);
      (* the cache footprint is a level, exported as a gauge *)
      Alcotest.(check bool) "cache.bytes typed gauge" true
        (List.mem "# TYPE jp_cache_resident_bytes gauge" ls))

let contains hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  go 0

let test_counter_events () =
  with_recording (fun () ->
      let g = Metrics.gauge "test.events_depth" in
      Metrics.set_gauge g 3;
      Metrics.snapshot ~now:1.0 ();
      Metrics.set_gauge g 9;
      Metrics.snapshot ~now:2.0 ();
      let trace = Metrics.chrome_trace_string () in
      Alcotest.(check bool) "counter lane present" true
        (contains trace "\"name\":\"test.events_depth\"");
      Alcotest.(check bool) "C phase events present" true
        (contains trace "\"ph\":\"C\"");
      Alcotest.(check bool) "both sampled values exported" true
        (contains trace "\"args\":{\"value\":3}"
        && contains trace "\"args\":{\"value\":9}"))

let suite =
  [
    Alcotest.test_case "bucket ladder" `Quick test_bucket_bounds;
    Alcotest.test_case "observe basics" `Quick test_observe_basics;
    Alcotest.test_case "quantile error bound" `Quick test_quantile_error_bound;
    Alcotest.test_case "merge deterministic" `Quick test_merge_deterministic;
    Alcotest.test_case "recording gate" `Quick test_recording_gate;
    Alcotest.test_case "local publish" `Quick test_local_publish;
    Alcotest.test_case "registry find-or-create" `Quick test_registry_find_or_create;
    Alcotest.test_case "snapshot fake clock" `Quick test_snapshot_fake_clock;
    Alcotest.test_case "exposition golden" `Quick test_exposition_golden;
    Alcotest.test_case "exposition counters" `Quick test_exposition_counters;
    Alcotest.test_case "counter events" `Quick test_counter_events;
  ]
