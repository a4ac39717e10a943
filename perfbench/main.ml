(* The join-project benchmark: one workload per invocation.

     main.exe --workload W --seed N --seconds S --trace 0|1
              [--machine FILE] [--trace-dir DIR]

   Prints the plans, a per-dataset (or per-phase) table, the machine-speed
   probe and, as the last line, the JSON result.  Exits 1 on any wrong
   answer or engine failure (after printing the result) and when no
   answer was correct (without one), 2 on a usage or set-up error. *)

module Json = Jp_obs.Json
module Report = Perfbench.Report
module Stats = Perfbench.Stats
module Spans = Perfbench.Spans
module Machine = Perfbench.Machine

let workloads = [ "dense-2path"; "sparse-2path"; "served-open" ]

let usage () =
  prerr_endline
    ("usage: main.exe --workload {" ^ String.concat "|" workloads
   ^ "} --seed N --seconds S --trace 0|1 [--machine FILE] [--trace-dir DIR]");
  exit 2

let fail fmt = Printf.ksprintf (fun s -> prerr_endline ("perfbench: " ^ s); exit 2) fmt

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. and trace = ref 0 in
  let machine = ref "perfbench/machine.json" and trace_dir = ref "perfbench/out" in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string v; parse rest
    | "--trace" :: v :: rest -> trace := int_of_string v; parse rest
    | "--machine" :: v :: rest -> machine := v; parse rest
    | "--trace-dir" :: v :: rest -> trace_dir := v; parse rest
    | _ -> usage ()
  in
  (try parse (List.tl (Array.to_list Sys.argv)) with Failure _ -> usage ());
  if (not (List.mem !workload workloads)) || !seconds <= 0. || (!trace <> 0 && !trace <> 1)
  then usage ();
  let traced = !trace = 1 in
  (match Machine.load !machine with
  | Ok m -> Jp_matrix.Cost.set_machine m
  | Error e -> fail "cannot load machine constants %s: %s" !machine e);
  let probe_before = Machine.probe () in
  let sp = Spans.create () in
  let run () =
    match !workload with
    | "dense-2path" -> Batch.run ~which:`Dense ~seed:!seed ~seconds:!seconds ~trace:traced sp
    | "sparse-2path" -> Batch.run ~which:`Sparse ~seed:!seed ~seconds:!seconds ~trace:traced sp
    | _ -> Served.run ~seed:!seed ~seconds:!seconds ~trace:traced sp
  in
  let o = run () in
  let peak_rss = Machine.peak_rss_mb () in
  let probe_after = Machine.probe () in
  (* A run that answered nothing correctly has no latency to report, and
     reporting 0 would read as a speed-up: fail it instead. *)
  if Array.length o.Common.cpu = 0 || Array.length o.Common.wall = 0 then begin
    Printf.printf "no correct answer measured (%d attempted, %d failed, %d wrong)\n"
      o.Common.attempted o.Common.failed o.Common.wrong;
    exit 1
  end;
  let cpu_p50 = Stats.median o.Common.cpu and cpu_tail = Stats.tail o.Common.cpu in
  let wall_p50 = Stats.median o.Common.wall and wall_tail = Stats.tail o.Common.wall in
  Printf.printf
    "cpu:  %.3f ms per answer, p50 %.3f ms, p%.2f %.3f ms (%d samples), set-up %.4f s\n"
    (Common.ms o.Common.cpu_per_query_s) (Common.ms cpu_p50) cpu_tail.Stats.pct
    (Common.ms cpu_tail.Stats.value) cpu_tail.Stats.samples o.Common.setup_cpu_s;
  Printf.printf
    "wall: %.3f answers/s, p50 %.3f ms, p%.2f %.3f ms (%d samples), set-up %.4f s, peak RSS %.1f MiB\n"
    o.Common.qps (Common.ms wall_p50) wall_tail.Stats.pct (Common.ms wall_tail.Stats.value)
    wall_tail.Stats.samples o.Common.setup_wall_s peak_rss;
  Printf.printf "probe: %.4f s before, %.4f s after\n" probe_before probe_after;
  if traced then begin
    print_string (Spans.render_self_times sp);
    (try
       if not (Sys.file_exists !trace_dir) then Sys.mkdir !trace_dir 0o755;
       let path =
         Filename.concat !trace_dir (Printf.sprintf "trace-%s-%d.json" !workload !seed)
       in
       Out_channel.with_open_bin path (fun oc ->
           output_string oc (Json.to_string (Spans.chrome_trace sp)));
       Printf.printf "chrome trace: %s (%d spans)\n" path (Spans.count sp)
     with Sys_error e -> Printf.printf "chrome trace not written: %s\n" e)
  end;
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ( "info",
              Json.Obj
                [
                  ("workload", Json.String !workload);
                  ("seed", Json.Int !seed);
                  ("probe_before_s", Json.Float probe_before);
                  ("probe_after_s", Json.Float probe_after);
                  ("cpu_tail_pct", Json.Float cpu_tail.Stats.pct);
                  ("cpu_tail_samples", Json.Int cpu_tail.Stats.samples);
                  ("qps", Json.Float o.Common.qps);
                  ("p50_ms", Json.Float (Common.ms wall_p50));
                  ("tail_ms", Json.Float (Common.ms wall_tail.Stats.value));
                  ("tail_pct", Json.Float wall_tail.Stats.pct);
                  ("tail_samples", Json.Int wall_tail.Stats.samples);
                  ("setup_wall_s", Json.Float o.Common.setup_wall_s);
                  ("peak_rss_mb", Json.Float peak_rss);
                  ("wrong", Json.Int o.Common.wrong);
                ] );
          ]));
  let metrics =
    if traced then
      List.map
        (fun (name, unit_) ->
          let value = Option.value ~default:0. (List.assoc_opt name o.Common.layers) in
          { Report.name; value; unit_ })
        Common.layer_units
    else
      [
        { Report.name = "setup_s"; value = o.Common.setup_cpu_s; unit_ = "s" };
        {
          Report.name = "cpu_ms_per_query";
          value = Common.ms o.Common.cpu_per_query_s;
          unit_ = "ms";
        };
        { Report.name = "cpu_p50_ms"; value = Common.ms cpu_p50; unit_ = "ms" };
        { Report.name = "cpu_tail_ms"; value = Common.ms cpu_tail.Stats.value; unit_ = "ms" };
      ]
  in
  List.iter
    (fun (name, _) ->
      if not (List.mem_assoc name Common.layer_units) then
        fail "internal: unknown per-layer metric %s" name)
    o.Common.layers;
  print_endline
    (Report.to_line
       {
         Report.correct = o.Common.wrong = 0;
         attempted = o.Common.attempted;
         failed = o.Common.failed;
         metrics;
       });
  if o.Common.wrong > 0 then exit 1
