(* Unit tests for the benchmark's own helpers: tail selection, latency
   from due time, result checksums, the result-line format, the pinned
   machine file and the span recorder. *)

module Stats = Perfbench.Stats
module Checksum = Perfbench.Checksum
module Report = Perfbench.Report
module Spans = Perfbench.Spans
module Machine = Perfbench.Machine
module Pairs = Jp_relation.Pairs
module Tuples = Jp_relation.Tuples

let feq = Alcotest.float 1e-12

let ramp n = Array.init n (fun i -> float_of_int (i + 1))

let test_percentile () =
  let xs = [| 5.; 1.; 4.; 2.; 3. |] in
  Alcotest.check feq "median" 3. (Stats.median xs);
  Alcotest.check feq "p100" 5. (Stats.percentile xs 100.);
  Alcotest.check feq "p1" 1. (Stats.percentile xs 1.);
  Alcotest.check feq "p40" 2. (Stats.percentile xs 40.);
  Alcotest.check feq "input untouched" 5. xs.(0);
  Alcotest.check_raises "empty" (Invalid_argument "Stats: empty sample") (fun () ->
      ignore (Stats.median [||]))

let test_tail_beyond () =
  (* 100 samples: rank 89 (value 90) leaves exactly 10 above it *)
  let t = Stats.tail (ramp 100) in
  Alcotest.check feq "value" 90. t.Stats.value;
  Alcotest.(check int) "beyond" 10 t.Stats.beyond;
  Alcotest.check feq "pct" 90. t.Stats.pct;
  Alcotest.(check int) "samples" 100 t.Stats.samples;
  let t = Stats.tail (ramp 2000) in
  Alcotest.check feq "p99.5" 1990. t.Stats.value;
  Alcotest.check feq "pct 2000" 99.5 t.Stats.pct

let test_tail_order_free () =
  let xs = ramp 57 in
  let shuffled = Array.copy xs in
  Jp_util.Rng.shuffle (Jp_util.Rng.create 3) shuffled;
  Alcotest.check feq "same tail" (Stats.tail xs).Stats.value
    (Stats.tail shuffled).Stats.value;
  Alcotest.check feq "47th of 57" 47. (Stats.tail shuffled).Stats.value

let test_tail_small () =
  let t = Stats.tail (ramp 11) in
  Alcotest.check feq "n=11 keeps 10 beyond the minimum" 1. t.Stats.value;
  Alcotest.(check int) "beyond 10" 10 t.Stats.beyond;
  let t = Stats.tail (ramp 4) in
  Alcotest.check feq "n=4 falls back to the minimum rank" 1. t.Stats.value;
  Alcotest.(check int) "beyond n-1" 3 t.Stats.beyond;
  let t = Stats.tail [| 7. |] in
  Alcotest.check feq "single" 7. t.Stats.value;
  Alcotest.check feq "single pct" 100. t.Stats.pct

let test_latency_from_due () =
  Alcotest.check feq "late + queued + ran" 0.035
    (Stats.latency_from_due ~due:10.0 ~submitted:10.005 ~queued_s:0.01 ~ran_s:0.02);
  Alcotest.check feq "on time" 0.03
    (Stats.latency_from_due ~due:10.0 ~submitted:10.0 ~queued_s:0.01 ~ran_s:0.02);
  Alcotest.check feq "early submit counts as zero lateness" 0.03
    (Stats.latency_from_due ~due:10.0 ~submitted:9.999 ~queued_s:0.01 ~ran_s:0.02);
  Alcotest.check feq "cache hit: lateness only" 0.002
    (Stats.latency_from_due ~due:1.0 ~submitted:1.002 ~queued_s:0. ~ran_s:0.)

let pairs_of rows = Pairs.of_rows (Array.of_list (List.map Array.of_list rows))

let test_checksum_order_free () =
  let p = pairs_of [ [ 1; 3 ]; []; [ 0; 2; 5 ] ] in
  let cs = Checksum.of_pairs p in
  Alcotest.(check int) "count" 5 cs.Checksum.count;
  let l = Pairs.to_list p in
  Alcotest.(check bool) "list order irrelevant" true
    (Checksum.equal cs (Checksum.of_pair_list (List.rev l)));
  let b = Tuples.create_builder ~arity:2 ~dims:[| 3; 6 |] in
  List.iter (fun (x, z) -> Tuples.add b [| x; z |]) (List.rev l);
  let via_tuples = Checksum.of_tuples (Tuples.build b) in
  let direct =
    List.fold_left (fun acc (x, z) -> Checksum.add_tuple acc [| x; z |]) Checksum.empty l
  in
  Alcotest.(check bool) "tuples order irrelevant" true (Checksum.equal via_tuples direct)

let test_checksum_sensitive () =
  let base = pairs_of [ [ 1; 3 ]; [ 2 ] ] in
  let moved = pairs_of [ [ 1; 4 ]; [ 2 ] ] in
  let swapped = pairs_of [ [ 2 ]; [ 1; 3 ] ] in
  let a = Checksum.of_pairs base in
  Alcotest.(check bool) "same |OUT|, other pair" false
    (Checksum.equal a (Checksum.of_pairs moved));
  Alcotest.(check bool) "rows swapped" false (Checksum.equal a (Checksum.of_pairs swapped));
  Alcotest.(check bool) "transposed pair" false
    (Checksum.equal (Checksum.of_pair_list [ (1, 2) ]) (Checksum.of_pair_list [ (2, 1) ]));
  Alcotest.(check bool) "empty" true (Checksum.equal Checksum.empty (Checksum.of_pairs (Pairs.empty 3)))

let sample =
  {
    Report.correct = true;
    attempted = 1234;
    failed = 2;
    metrics =
      [
        { Report.name = "setup_s"; value = 0.8127000000000001; unit_ = "s" };
        { Report.name = "p50_ms"; value = 1.2034e-3; unit_ = "ms" };
        { Report.name = "qps"; value = 147.59961299197943; unit_ = "1/s" };
        { Report.name = "zero"; value = 0.; unit_ = "count" };
      ];
  }

let test_report_round_trip () =
  let line = Report.to_line sample in
  Alcotest.(check bool) "one line" false (String.contains line '\n');
  match Report.of_line line with
  | Error e -> Alcotest.fail e
  | Ok r ->
    Alcotest.(check bool) "round trip" true (Report.equal r sample);
    Alcotest.(check string) "stable rendering" line (Report.to_line r)

let test_report_shape () =
  let j = Report.to_json sample in
  let keys = match j with Jp_obs.Json.Obj kv -> List.map fst kv | _ -> [] in
  Alcotest.(check (list string)) "exact keys"
    [ "correct"; "attempted"; "failed"; "metrics" ] keys;
  Alcotest.(check bool) "malformed" true
    (Result.is_error (Report.of_line {|{"correct": true, "attempted": 1}|}))

let test_machine () =
  match Jp_obs.Json.of_string
          {|{"note": "x", "ts": 1e-9, "tm": 2e-8, "ti": 1e-8, "count_word": 9e-9, "bool_word": 5e-9, "cores": 2}|}
  with
  | Error e -> Alcotest.fail e
  | Ok j -> (
    (match Machine.of_json j with
    | Ok m ->
      Alcotest.check feq "bool_word" 5e-9 m.Jp_matrix.Cost.bool_word;
      Alcotest.(check int) "cores" 2 m.Jp_matrix.Cost.cores
    | Error e -> Alcotest.fail e);
    match Jp_obs.Json.of_string {|{"ts": 1e-9}|} with
    | Ok j -> Alcotest.(check bool) "missing" true (Result.is_error (Machine.of_json j))
    | Error e -> Alcotest.fail e)

let test_spans_self_time () =
  let sp = Spans.create () in
  let x, _ =
    Spans.span sp ~tid:7 "outer" (fun () ->
        let a, _ = Spans.span sp ~tid:7 "inner" (fun () -> Unix.sleepf 0.002; 1) in
        a + 1)
  in
  Alcotest.(check int) "result" 2 x;
  Alcotest.(check int) "two spans" 2 (Spans.count sp);
  let rows = Spans.self_times sp in
  let find n = List.find (fun r -> r.Spans.name = n) rows in
  let outer = find "outer" and inner = find "inner" in
  Alcotest.(check bool) "outer self excludes inner" true
    (outer.Spans.self_s < outer.Spans.total_s
    && Float.abs (outer.Spans.total_s -. outer.Spans.self_s -. inner.Spans.total_s) < 1e-9);
  (match Spans.chrome_trace sp with
  | Jp_obs.Json.Obj kv -> (
    match List.assoc_opt "traceEvents" kv with
    | Some (Jp_obs.Json.List evs) -> Alcotest.(check int) "events" 2 (List.length evs)
    | _ -> Alcotest.fail "no traceEvents")
  | _ -> Alcotest.fail "not an object");
  Alcotest.check_raises "span re-raises" Exit (fun () ->
      ignore (Spans.span sp ~tid:8 "boom" (fun () -> raise Exit)));
  Alcotest.(check int) "failed span recorded" 3 (Spans.count sp)

let () =
  Alcotest.run "perfbench"
    [
      ( "stats",
        [
          Alcotest.test_case "nearest-rank percentile" `Quick test_percentile;
          Alcotest.test_case "tail leaves 10 beyond" `Quick test_tail_beyond;
          Alcotest.test_case "tail ignores input order" `Quick test_tail_order_free;
          Alcotest.test_case "tail of small samples" `Quick test_tail_small;
          Alcotest.test_case "latency from due" `Quick test_latency_from_due;
        ] );
      ( "checksum",
        [
          Alcotest.test_case "order independent" `Quick test_checksum_order_free;
          Alcotest.test_case "sensitive beyond |OUT|" `Quick test_checksum_sensitive;
        ] );
      ( "report",
        [
          Alcotest.test_case "round trip" `Quick test_report_round_trip;
          Alcotest.test_case "shape" `Quick test_report_shape;
        ] );
      ( "machine", [ Alcotest.test_case "constants file" `Quick test_machine ] );
      ( "spans", [ Alcotest.test_case "self time and trace" `Quick test_spans_self_time ] );
    ]
