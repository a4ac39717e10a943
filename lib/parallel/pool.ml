module Cancel = Jp_util.Cancel

let available_cores () = Domain.recommended_domain_count ()

let default_chunk ~domains ~lo ~hi =
  let span = hi - lo in
  max 1 (span / (domains * 8))

(* Chaos injection point, consulted once per chunk claim (never per
   element).  Installed by [Jp_chaos] to simulate transient kernel faults
   and worker-domain deaths; the default is a no-op closure, so the cost
   with chaos disarmed is one atomic load + call per chunk. *)
let no_fault () = ()

let fault_hook : (unit -> unit) Atomic.t = Atomic.make no_fault

let set_fault_hook = function
  | Some f -> Atomic.set fault_hook f
  | None -> Atomic.set fault_hook no_fault

(* The first worker failure, by lowest chunk index: re-raising the
   lowest-indexed exception makes the propagated failure deterministic
   even though domains race (the chunk counter hands indices out in
   order, so every chunk below the failing one either completed or
   failed with a lower index of its own). *)
type failure = { index : int; error : exn; bt : Printexc.raw_backtrace }

let record_failure ~stop ~failure ~index error bt =
  Atomic.set stop true;
  let rec keep_min () =
    let cur = Atomic.get failure in
    let replace = match cur with None -> true | Some f -> index < f.index in
    if replace && not (Atomic.compare_and_set failure cur (Some { index; error; bt }))
    then keep_min ()
  in
  keep_min ()

(* Run [worker ()] on [domains] domains (including the calling one); the
   workers record failures themselves (per chunk), this only catches
   strays escaping the claim loop. *)
let run_workers ~domains ~stop ~failure worker =
  if domains <= 1 then worker ()
  else begin
    Jp_obs.add Jp_obs.C.pool_spawns (domains - 1);
    let guarded () =
      try worker ()
      with e ->
        record_failure ~stop ~failure ~index:max_int e (Printexc.get_raw_backtrace ())
    in
    let others = List.init (domains - 1) (fun _ -> Domain.spawn guarded) in
    guarded ();
    List.iter Domain.join others
  end

let reraise_failure failure =
  match Atomic.get failure with
  | Some { error; bt; _ } -> Printexc.raise_with_backtrace error bt
  | None -> ()

let check_cancel cancel =
  match cancel with Some c -> Cancel.check c | None -> ()

(* The one chunked loop: [step i j] over consecutive sub-ranges of
   [lo, hi) at most [chunk] long, polling [cancel] before each and
   stopping once it is cancelled or [step] returns [false].  An absent
   token is never polled.  Never raises on cancellation: the caller
   follows with [check_cancel]. *)
let chunked ?cancel ~chunk ~lo ~hi step =
  let chunk = max 1 chunk in
  let live () = match cancel with None -> true | Some c -> not (Cancel.is_cancelled c) in
  let i = ref lo in
  while !i < hi && live () && step !i (min hi (!i + chunk)) do
    i := !i + chunk
  done

(* Sequential degenerate case.  Without a token the range is one chunk:
   the body gets it in one call, and the chaos hook (a countdown over
   token polls and chunk claims) is not consulted, as there is no claim
   to fault.  With one the range is chunked so the token is polled
   between chunks. *)
let seq_ranges ?cancel ~chunk ~lo ~hi body =
  let chunk = match cancel with None -> hi - lo | Some _ -> chunk in
  chunked ?cancel ~chunk ~lo ~hi (fun i j ->
      if Option.is_some cancel then (Atomic.get fault_hook) ();
      Jp_obs.incr Jp_obs.C.pool_tasks;
      body i j;
      true);
  check_cancel cancel

let parallel_for_ranges ~domains ?chunk ?cancel ~lo ~hi body =
  if hi > lo then begin
    let chunk =
      match chunk with Some c when c > 0 -> c | _ -> default_chunk ~domains ~lo ~hi
    in
    if domains <= 1 then seq_ranges ?cancel ~chunk ~lo ~hi body
    else begin
      let next = Atomic.make lo in
      let stop = Atomic.make false in
      let failure = Atomic.make None in
      let worker () =
        let continue = ref true in
        while !continue && not (Atomic.get stop) do
          let start = Atomic.fetch_and_add next chunk in
          if start >= hi then continue := false
          else begin
            try
              (Atomic.get fault_hook) ();
              match cancel with
              | Some c when Cancel.is_cancelled c -> continue := false
              | _ ->
                Jp_obs.incr Jp_obs.C.pool_tasks;
                body start (min hi (start + chunk))
            with e ->
              record_failure ~stop ~failure ~index:start e
                (Printexc.get_raw_backtrace ())
          end
        done
      in
      run_workers ~domains ~stop ~failure worker;
      reraise_failure failure;
      check_cancel cancel
    end
  end

let parallel_for ~domains ?chunk ?cancel ~lo ~hi body =
  parallel_for_ranges ~domains ?chunk ?cancel ~lo ~hi (fun a b ->
      for i = a to b - 1 do
        body i
      done)

let split_ranges ~domains ?cancel ~chunk ~lo ~hi ~alloc step =
  let worker l h =
    let scratch = alloc () in
    chunked ?cancel ~chunk ~lo:l ~hi:h (step scratch)
  in
  if domains <= 1 || hi <= lo then worker lo hi
  else begin
    let per = (hi - lo + domains - 1) / domains in
    parallel_for_ranges ~domains ~chunk:per ?cancel ~lo ~hi worker
  end;
  check_cancel cancel
