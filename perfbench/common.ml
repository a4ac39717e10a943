(* Types and helpers shared by the batch and served workloads. *)

module Stats = Perfbench.Stats

(* What one workload run measured, in seconds.  The gated metrics are
   CPU times: on the 2-core VM the benchmark was written on, the
   hypervisor steals enough time that wall-clock figures of identical
   runs differ by up to 2x, while CPU times stay within about 8%.  The
   wall-clock figures are still measured and printed. *)
type outcome = {
  setup_cpu_s : float;  (* median CPU time of the repeated set-ups *)
  setup_wall_s : float;  (* median wall time of the same set-ups *)
  cpu_per_query_s : float;  (* process CPU per correct answer *)
  cpu : float array;  (* batch: CPU per round; served: per executed query *)
  qps : float;  (* correct answers per wall second *)
  wall : float array;  (* batch: round wall times; served: latency from due *)
  attempted : int;
  failed : int;  (* typed errors and wrong answers *)
  wrong : int;  (* wrong answers and engine failures: any of them fails the run *)
  layers : (string * float) list;  (* per-layer metrics (traced run only) *)
}

(* Every per-layer metric with its unit, in report order.  A workload
   reports the ones on its path; the others print as 0. *)
let layer_units =
  [
    ("optimizer.prepare_ms", "ms");
    ("optimizer.plan_ms", "ms");
    ("optimizer.est_out_ratio", "ratio");
    ("partition.make_ms", "ms");
    ("matrix.operand_ms", "ms");
    ("matrix.kernel_ms", "ms");
    ("mm.bool_word_ops", "count");
    ("wcoj.light_ms", "ms");
    ("light.probes", "count");
    ("two_path.cell_ms", "ms");
    ("two_path.merge_ms", "ms");
    ("dedup.stamp_hits", "count");
    ("dedup.stamp_misses", "count");
    ("dedup.useful_ratio", "ratio");
    ("sort.radix_bytes", "bytes");
    ("pool.spawns", "count");
    ("pool.tasks", "count");
    ("service.queue_ms_p50", "ms");
    ("service.queue_ms_tail", "ms");
    ("service.run_ms_p50", "ms");
    ("service.run_ms_tail", "ms");
    ("service.retries", "count");
    ("service.shed", "count");
    ("service.expired", "count");
    ("service.deadline", "count");
    ("cache.hit_ratio", "ratio");
    ("cache.bytes", "bytes");
    ("cache.evictions", "count");
    ("cache.find_us", "us");
    ("kind.mm_ms", "ms");
    ("kind.ssj_ms", "ms");
    ("kind.scj_ms", "ms");
    ("kind.cq_ms", "ms");
    ("mm.count_word_ops", "count");
    ("cq.plan_ms", "ms");
    ("driver.late_ms_tail", "ms");
    ("error_rate", "ratio");
    ("obs.overhead_pct", "%");
  ]

(* The engine work counters snapshotted around each query.  Report name
   first, Jp_obs counter name second. *)
let work_counters =
  [
    ("mm.bool_word_ops", "mm.bool_word_ops");
    ("mm.count_word_ops", "mm.count_word_ops");
    ("light.probes", "light.probes");
    ("dedup.stamp_hits", "dedup.stamp_hits");
    ("dedup.stamp_misses", "dedup.stamp_misses");
    ("sort.radix_bytes", "sort.radix_bytes");
    ("pool.spawns", "pool.domain_spawns");
    ("pool.tasks", "pool.tasks");
  ]

let snapshot () =
  let all = Jp_obs.counter_values () in
  Array.of_list
    (List.map
       (fun (_, c) -> Option.value ~default:0 (List.assoc_opt c all))
       work_counters)

(* [delta before after] as an array aligned with [work_counters]. *)
let delta before after = Array.mapi (fun i a -> a - before.(i)) after

let useful_ratio ~hits ~misses =
  if hits +. misses > 0. then misses /. (hits +. misses) else 0.

let ms s = s *. 1e3

(* CPU seconds used by this process so far, summed over all its domains.
   Unlike wall time it does not count time the hypervisor steals from
   the VM, so it tracks the work done rather than the share of the
   machine the process was given. *)
let cpu_now () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let overhead_pct ~untraced ~traced = 100. *. (traced -. untraced) /. untraced

(* [timed_setup ~repeats ?discard f] runs the set-up [f] [repeats] times
   and keeps the last value, with the median CPU and wall times of the
   runs.  Every earlier value is passed to [discard] (default: dropped)
   outside the timed window, so tearing one set-up down is not charged
   to the next. *)
let timed_setup ~repeats ?(discard = ignore) f =
  let cpu = Array.make repeats 0. and wall = Array.make repeats 0. in
  let last = ref None in
  for i = 0 to repeats - 1 do
    Option.iter discard !last;
    let c0 = cpu_now () in
    let v, dt = Jp_util.Timer.time f in
    cpu.(i) <- cpu_now () -. c0;
    wall.(i) <- dt;
    last := Some v
  done;
  (Option.get !last, Stats.median cpu, Stats.median wall)
