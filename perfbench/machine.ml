module Json = Jp_obs.Json
module Cost = Jp_matrix.Cost

let of_json j =
  let num k =
    match Option.bind (Json.member k j) Json.to_float_opt with
    | Some v when v > 0. -> Ok v
    | _ -> Error (Printf.sprintf "machine constants: %S missing or not positive" k)
  in
  let ( let* ) = Result.bind in
  let* ts = num "ts" in
  let* tm = num "tm" in
  let* ti = num "ti" in
  let* count_word = num "count_word" in
  let* bool_word = num "bool_word" in
  let* cores = num "cores" in
  Ok { Cost.ts; tm; ti; count_word; bool_word; cores = int_of_float cores }

let load path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error e -> Error e
  | text -> Result.bind (Json.of_string text) of_json

let probe () =
  let t0 = Jp_util.Timer.now () in
  let x = ref 88172645463325252 in
  for _ = 1 to 20_000_000 do
    let v = !x in
    let v = v lxor (v lsl 13) in
    let v = v lxor (v lsr 7) in
    x := v lxor (v lsl 17)
  done;
  let dt = Jp_util.Timer.now () -. t0 in
  (* keep the loop observable so it cannot be dropped *)
  if !x = 0 then print_string "";
  dt

let peak_rss_mb () =
  let from_proc =
    match In_channel.with_open_text "/proc/self/status" In_channel.input_all with
    | exception Sys_error _ -> None
    | text ->
      String.split_on_char '\n' text
      |> List.find_map (fun line ->
             match String.split_on_char ':' line with
             | [ "VmHWM"; v ] ->
               Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb ->
                   float_of_int kb /. 1024.)
             | _ -> None)
  in
  match from_proc with
  | Some mb -> mb
  | None ->
    float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
    /. 1048576.
