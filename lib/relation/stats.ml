type t = {
  dom : int; (* length of the degree array the index was built over *)
  ids : int array; (* active value ids, ascending by degree, ties by id *)
  degs : int array; (* degree of ids.(i), ascending *)
  prefix_deg : int array; (* prefix_deg.(i) = Σ degs.(0..i-1) *)
  prefix_sq : int array;
  prefix_weight : int array;
}

let prefix_weights ids w =
  let n = Array.length ids in
  let p = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    p.(i + 1) <- p.(i) + w.(ids.(i))
  done;
  p

(* Stable counting sort of the active ids on degree: one histogram pass,
   an exclusive prefix sum over degrees, one placement pass.  O(n + max
   degree), against a comparison sort's O(n log n) through [deg]. *)
let of_degrees ?weights deg =
  let dom = Array.length deg in
  (match weights with
  | Some w when Array.length w <> dom ->
    invalid_arg "Stats.of_degrees: weights length mismatch"
  | _ -> ());
  let max_d = ref 0 in
  for v = 0 to dom - 1 do
    if deg.(v) > !max_d then max_d := deg.(v)
  done;
  let start = Array.make (!max_d + 1) 0 in
  for v = 0 to dom - 1 do
    let d = deg.(v) in
    if d > 0 then start.(d) <- start.(d) + 1
  done;
  let n = ref 0 in
  for d = 1 to !max_d do
    let c = start.(d) in
    start.(d) <- !n;
    n := !n + c
  done;
  let n = !n in
  let ids = Array.make n 0 and degs = Array.make n 0 in
  for v = 0 to dom - 1 do
    let d = deg.(v) in
    if d > 0 then begin
      let i = start.(d) in
      ids.(i) <- v;
      degs.(i) <- d;
      start.(d) <- i + 1
    end
  done;
  let prefix_deg = Array.make (n + 1) 0 in
  let prefix_sq = Array.make (n + 1) 0 in
  for i = 0 to n - 1 do
    let d = degs.(i) in
    prefix_deg.(i + 1) <- prefix_deg.(i) + d;
    prefix_sq.(i + 1) <- prefix_sq.(i) + (d * d)
  done;
  let prefix_weight =
    match weights with Some w -> prefix_weights ids w | None -> prefix_deg
  in
  { dom; ids; degs; prefix_deg; prefix_sq; prefix_weight }

let with_weights t w =
  if Array.length w <> t.dom then
    invalid_arg "Stats.with_weights: weights length mismatch";
  { t with prefix_weight = prefix_weights t.ids w }

let active_count t = Array.length t.ids

let max_degree t =
  let n = Array.length t.degs in
  if n = 0 then 0 else t.degs.(n - 1)

(* Index of the first degree strictly greater than d. *)
let split t d = Jp_util.Sorted.lower_bound t.degs (d + 1)

let count_le t d = split t d

let count_gt t d = Array.length t.ids - split t d

let sum_le t d = t.prefix_deg.(split t d)

let sum_sq_le t d = t.prefix_sq.(split t d)

let weight_le t d = t.prefix_weight.(split t d)

let values_le t d = Array.sub t.ids 0 (split t d)

let nth_smallest_degree t k =
  if k < 0 || k >= Array.length t.degs then invalid_arg "Stats.nth_smallest_degree";
  t.degs.(k)
