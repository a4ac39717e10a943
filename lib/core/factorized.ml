module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Row_acc = Jp_wcoj.Row_acc

type t = {
  light : int array array; (* x -> sorted light partners *)
  x_arrays : int array array; (* biclique id -> sorted heavy x ids *)
  z_arrays : int array array; (* biclique id -> sorted heavy z ids *)
  by_x : int array array; (* x -> biclique ids containing x *)
  nz : int; (* dom(z) *)
}

(* Light side of Algorithm 1 only (the heavy residue stays factorized). *)
let light_rows ~r ~s (p : Partition.t) =
  let s_light_of_heavy_y = Array.make (Array.length p.light_y) [||] in
  Array.iter
    (fun b ->
      if b < Relation.dst_count s then
        s_light_of_heavy_y.(b) <-
          Array.of_seq
            (Seq.filter
               (fun c -> Relation.deg_src s c <= p.d2)
               (Array.to_seq (Relation.adj_dst s b))))
    p.heavy_y;
  let acc = Row_acc.create (Relation.src_count s) in
  Array.init (Relation.src_count r) (fun a ->
      Row_acc.start acc;
      let a_light = Relation.deg_src r a <= p.d2 in
      Array.iter
        (fun b ->
          if a_light || Partition.is_light_y p b then
            Row_acc.scan acc (Relation.adj_dst s b)
          else Row_acc.scan acc s_light_of_heavy_y.(b))
        (Relation.adj_src r a);
      Row_acc.finish acc)

let build ?plan ?thresholds ~r ~s () =
  let nz = Relation.src_count s in
  let decision =
    match (plan, thresholds) with
    | Some p, _ -> p.Optimizer.decision
    | None, Some (d1, d2) -> Optimizer.Partitioned { d1; d2 }
    | None, None -> (Optimizer.plan ~r ~s ()).Optimizer.decision
  in
  match decision with
  | Optimizer.Wcoj ->
    let pairs = Jp_wcoj.Expand.project ~r ~s () in
    {
      light = Array.init (Pairs.src_count pairs) (fun x -> Pairs.row pairs x);
      x_arrays = [||];
      z_arrays = [||];
      by_x = Array.make (Relation.src_count r) [||];
      nz;
    }
  | Optimizer.Partitioned { d1; d2 } ->
    let p = Partition.make ~r ~s ~d1 ~d2 () in
    let light = light_rows ~r ~s p in
    (* One biclique per heavy witness, deduplicated by content: witnesses
       shared by the same community contribute identical X x Z blocks, and
       that dedup is where the compression comes from. *)
    let seen : (int array * int array, unit) Hashtbl.t = Hashtbl.create 64 in
    let xa = ref [] and za = ref [] in
    Array.iter
      (fun b ->
        let heavy_of rel index =
          if b < Relation.dst_count rel then
            Array.of_seq
              (Seq.filter (fun v -> index.(v) >= 0) (Array.to_seq (Relation.adj_dst rel b)))
          else [||]
        in
        let x_side = heavy_of r p.x_index and z_side = heavy_of s p.z_index in
        if
          Array.length x_side > 0
          && Array.length z_side > 0
          && not
               (Hashtbl.mem seen (x_side, z_side)
               [@jp.lint.allow "hashtbl-dedup"
                 "keys are (int array * int array) biclique signatures; \
                  structured and sparse, no dense int domain to stamp"])
        then begin
          (Hashtbl.add seen (x_side, z_side) ()
          [@jp.lint.allow "hashtbl-dedup"
            "same structured biclique-signature keys as the mem above"]);
          xa := x_side :: !xa;
          za := z_side :: !za
        end)
      p.heavy_y;
    let x_arrays = Array.of_list (List.rev !xa) in
    let z_arrays = Array.of_list (List.rev !za) in
    let memberships = Array.make (Relation.src_count r) [] in
    Array.iteri
      (fun id x_side ->
        Array.iter (fun x -> memberships.(x) <- id :: memberships.(x)) x_side)
      x_arrays;
    let by_x = Array.map (fun l -> Array.of_list (List.rev l)) memberships in
    { light; x_arrays; z_arrays; by_x; nz }

let of_pairs pairs =
  let nz = ref 1 in
  Pairs.iter (fun _ z -> if z >= !nz then nz := z + 1) pairs;
  {
    light = Array.init (Pairs.src_count pairs) (fun x -> Pairs.row pairs x);
    x_arrays = [||];
    z_arrays = [||];
    by_x = Array.make (Pairs.src_count pairs) [||];
    nz = !nz;
  }

let mem t x z =
  x < Array.length t.light
  && (Jp_util.Sorted.mem t.light.(x) z
     || Array.exists (fun id -> Jp_util.Sorted.mem t.z_arrays.(id) z) t.by_x.(x))

(* Row [x] of the pair set: its light partners and every biclique it
   belongs to, deduplicated in [acc]. *)
let row t acc x =
  Row_acc.start acc;
  Row_acc.scan acc t.light.(x);
  Array.iter (fun id -> Row_acc.scan acc t.z_arrays.(id)) t.by_x.(x);
  Row_acc.finish acc

let iter f t =
  let acc = Row_acc.create t.nz in
  Array.iteri (fun x _ -> Array.iter (f x) (row t acc x)) t.light

let count t =
  let n = ref 0 in
  iter (fun _ _ -> incr n) t;
  !n

let stored_ints t =
  let light = Array.fold_left (fun acc row -> acc + Array.length row) 0 t.light in
  let heavy =
    Array.fold_left (fun acc a -> acc + Array.length a) 0 t.x_arrays
    + Array.fold_left (fun acc a -> acc + Array.length a) 0 t.z_arrays
  in
  light + heavy

let bicliques t = Array.length t.x_arrays

let to_pairs t =
  let acc = Row_acc.create t.nz in
  Pairs.of_rows_unchecked (Array.init (Array.length t.light) (row t acc))
