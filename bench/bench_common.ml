(* Shared plumbing for the benchmark harness: configuration, dataset
   cache, timing, and section/row rendering. *)

module Relation = Jp_relation.Relation
module Presets = Jp_workload.Presets
module Tablefmt = Jp_util.Tablefmt

type config = {
  scale : float; (* dataset scale multiplier *)
  repeats : int; (* median-of-n timing *)
  only : string list; (* experiment tags to run; [] = all *)
  cores : int list; (* core counts for the multicore figures *)
  strict : bool; (* cross-engine |OUT| disagreement is a hard error *)
}

let default_config =
  {
    scale = 1.0;
    repeats = 1;
    only = [];
    cores = [ 1; 2; 4 ];
    strict = false;
  }

let wants cfg tag =
  cfg.only = []
  || List.exists
       (fun o -> String.lowercase_ascii o = String.lowercase_ascii tag)
       cfg.only

let section title =
  Printf.printf "\n==== %s ====\n%!" title

let note fmt = Printf.ksprintf (fun s -> Printf.printf "  %s\n%!" s) fmt

(* Dataset cache: each preset is generated once per run. *)
let cache : (string, Relation.t) Hashtbl.t = Hashtbl.create 16

let dataset cfg name =
  let key = Printf.sprintf "%s@%f" (Presets.to_string name) cfg.scale in
  match Hashtbl.find_opt cache key with
  | Some r -> r
  | None ->
    let r = Presets.load ~scale:cfg.scale name in
    Hashtbl.add cache key r;
    r

(* ------------------------------------------------------------------ *)
(* JSON record sink (--json FILE)                                      *)
(*                                                                     *)
(* When main.ml enables Jp_obs, every timed cell appends one record:   *)
(* experiment tag, cell label, median seconds, checksum (when the cell *)
(* produces one) and the engine-counter deltas across the runs.        *)

let json_records : Jp_obs.Json.t list ref = ref []

let current_tag = ref ""

let cell_seq = ref 0

let set_experiment tag =
  current_tag := tag;
  cell_seq := 0

let counter_delta before after =
  List.filter_map
    (fun (name, v) ->
      let v0 = Option.value ~default:0 (List.assoc_opt name before) in
      if v - v0 <> 0 then Some (name, v - v0) else None)
    after

(* The resident footprints are levels, kept as Jp_metrics gauges; a
   cell's [bytes] ledger fields are their change over the cell. *)
let footprints () =
  Jp_metrics.(gauge_value G.cache_bytes, gauge_value G.tile_bytes)

(* The [counters] delta drops zero entries, so consumers watching cache
   behaviour would see the cache.* keys flicker in and out of the record.
   Summarize them in a dedicated, always-present object (old fields stay
   exactly as they were). *)
let cache_summary counters ~bytes =
  let open Jp_obs.Json in
  let get n = Option.value ~default:0 (List.assoc_opt n counters) in
  Obj
    [
      ("hit", Int (get "cache.hit"));
      ("miss", Int (get "cache.miss"));
      ("evict", Int (get "cache.evict"));
      ("reject", Int (get "cache.reject"));
      ("invalidate", Int (get "cache.invalidate"));
      ("bytes", Int bytes);
    ]

(* Same always-present treatment for the tile.* counters: [peak_bytes]
   is the cell's high-water resident-set mark under the tile store's
   byte budget, the headline number of the memory-bounded kernels. *)
let tile_summary counters ~bytes =
  let open Jp_obs.Json in
  let get n = Option.value ~default:0 (List.assoc_opt n counters) in
  Obj
    [
      ("build", Int (get "tile.build"));
      ("store_hit", Int (get "tile.store_hit"));
      ("evict", Int (get "tile.evict"));
      ("product", Int (get "tile.product"));
      ("bytes", Int bytes);
      ("peak_bytes", Int (get "tile.peak_bytes"));
    ]

(* Exact nearest-rank quantile over the per-repeat times — the sample is
   tiny (repeats runs), so no bucketing, just a sort. *)
let run_quantile q dts =
  let a = Array.of_list dts in
  Array.sort Float.compare a;
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (q *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let emit_record ?checksum ~label ~seconds ~runs ~before (cache0, tile0) =
  let counters = counter_delta before (Jp_obs.counter_values ()) in
  let cache1, tile1 = footprints () in
  let open Jp_obs.Json in
  let fields =
    [ ("experiment", String !current_tag); ("label", String label);
      ("seconds", Float seconds);
      ("p50", Float (run_quantile 0.50 runs));
      ("p95", Float (run_quantile 0.95 runs));
      ("p99", Float (run_quantile 0.99 runs)) ]
    @ (match checksum with Some c -> [ ("checksum", Int c) ] | None -> [])
    @ [ ("counters", Obj (List.map (fun (n, v) -> (n, Int v)) counters));
        ("cache", cache_summary counters ~bytes:(cache1 - cache0));
        ("tile", tile_summary counters ~bytes:(tile1 - tile0)) ]
  in
  json_records := Obj fields :: !json_records

let auto_label = function
  | Some l -> l
  | None ->
    incr cell_seq;
    Printf.sprintf "cell%d" !cell_seq

let time_runs_raw cfg f =
  let _, dt, runs = Jp_util.Timer.time_runs ~repeats:cfg.repeats f in
  (dt, runs)

let time_raw cfg f = fst (time_runs_raw cfg f)

let time ?label cfg f =
  if not (Jp_obs.recording ()) then time_raw cfg f
  else begin
    let before = Jp_obs.counter_values () and bytes = footprints () in
    let t, runs = time_runs_raw cfg f in
    emit_record ~label:(auto_label label) ~seconds:t ~runs ~before bytes;
    t
  end

(* Runs [f] and renders its wall time, also returning a checksum so that
   result sizes can be cross-checked between engines in the same row. *)
let timed_cell ?label cfg f =
  let result = ref 0 in
  let run () =
    result := f ();
    !result
  in
  let t =
    if not (Jp_obs.recording ()) then time_raw cfg run
    else begin
      let before = Jp_obs.counter_values () and bytes = footprints () in
      let t, runs = time_runs_raw cfg run in
      emit_record ~checksum:!result ~label:(auto_label label) ~seconds:t ~runs
        ~before bytes;
      t
    end
  in
  (Tablefmt.seconds t, !result)

let write_json ~path cfg =
  let open Jp_obs.Json in
  let doc =
    Obj
      [
        ( "config",
          Obj
            [
              ("scale", Float cfg.scale);
              ("repeats", Int cfg.repeats);
              ("strict", Bool cfg.strict);
              ("cores", List (List.map (fun c -> Int c) cfg.cores));
            ] );
        ("records", List (List.rev !json_records));
      ]
  in
  (* Write-then-rename so a crash mid-write (or a concurrent reader
     polling the file during a long run) never observes a truncated
     document.  The temp file lives in the target's directory because
     rename is only atomic within one filesystem. *)
  let tmp =
    Filename.temp_file ~temp_dir:(Filename.dirname path)
      (Filename.basename path ^ ".") ".tmp"
  in
  (try
     let oc = open_out tmp in
     Fun.protect
       ~finally:(fun () -> close_out oc)
       (fun () ->
         output_string oc (to_string_pretty doc);
         output_char oc '\n');
     Sys.rename tmp path
   with e ->
     (try Sys.remove tmp with Sys_error _ -> ());
     raise e);
  Printf.printf "\nwrote %d benchmark records to %s\n%!"
    (List.length !json_records) path

let check_consistent cfg ~label sizes =
  match List.filter (fun s -> s >= 0) sizes with
  | [] -> ()
  | first :: rest ->
    if not (List.for_all (fun s -> s = first) rest) then begin
      let detail = String.concat ", " (List.map string_of_int (first :: rest)) in
      if cfg.strict then begin
        Printf.printf "  ERROR: engines disagree on |OUT| for %s: %s\n%!" label
          detail;
        exit 1
      end
      else
        Printf.printf "  WARNING: engines disagree on |OUT| for %s: %s\n%!" label
          detail
    end
