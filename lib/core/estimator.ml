module Relation = Jp_relation.Relation

let active_src r =
  let n = ref 0 in
  for a = 0 to Relation.src_count r - 1 do
    if Relation.deg_src r a > 0 then incr n
  done;
  !n

let join_size ~r ~s = Relation.join_size_on_dst [ r; s ]

let sandwich ~join_size ~dom_x ~dom_z ~n =
  let n = max 1 n in
  let ratio = join_size / n in
  let lower = max (max dom_x dom_z) (ratio * ratio) in
  let upper = min (dom_x * dom_z) join_size in
  (* Degenerate inputs can invert the sandwich; keep it consistent. *)
  let upper = max upper 1 in
  let lower = max 1 (min lower upper) in
  (lower, upper)

let geometric_mean (lower, upper) =
  let g = sqrt (float_of_int lower *. float_of_int upper) in
  max lower (min upper (int_of_float g))

let bounds ~r ~s =
  sandwich ~join_size:(join_size ~r ~s) ~dom_x:(active_src r)
    ~dom_z:(active_src s)
    ~n:(max (Relation.size r) (Relation.size s))

let sampled ?(seed = 0x5EED) ?(sample = 64) ~r ~s () =
  let lower, upper = bounds ~r ~s in
  let nx = Relation.src_count r in
  let active = Array.of_seq (Seq.filter (fun a -> Relation.deg_src r a > 0) (Seq.init nx (fun a -> a))) in
  let n_active = Array.length active in
  if n_active = 0 then 0
  else begin
    let rng = Jp_util.Rng.create seed in
    let sample = min sample n_active in
    let chosen = Array.init sample (fun _ -> active.(Jp_util.Rng.int rng n_active)) in
    let acc = Jp_wcoj.Row_acc.create (Relation.src_count s) in
    let total = ref 0 in
    Array.iter
      (fun a ->
        Jp_wcoj.Row_acc.start acc;
        Array.iter
          (fun b -> Jp_wcoj.Row_acc.scan acc (Relation.adj_dst s b))
          (Relation.adj_src r a);
        total := !total + Jp_wcoj.Row_acc.distinct acc)
      chosen;
    let scaled =
      int_of_float (float_of_int !total /. float_of_int sample *. float_of_int n_active)
    in
    max lower (min upper scaled)
  end

let estimate ~r ~s = geometric_mean (bounds ~r ~s)
