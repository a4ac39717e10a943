module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Bitset = Jp_util.Bitset

let two_path ?(dense_threshold = 62) ~r ~s () =
  let nz = Relation.src_count s in
  (* Materialize dense inverted lists of S as bitsets over dom(z). *)
  let dense = Array.make (Relation.dst_count s) None in
  for y = 0 to Relation.dst_count s - 1 do
    let zs = Relation.adj_dst s y in
    if Array.length zs > dense_threshold then
      dense.(y) <- Some (Bitset.of_sorted_array nz zs)
  done;
  let acc = Bitset.create nz in
  let rows =
    Array.init (Relation.src_count r) (fun a ->
        let ys = Relation.adj_src r a in
        if Array.length ys = 0 then [||]
        else begin
          Array.iter
            (fun y ->
              if y < Relation.dst_count s then
                match dense.(y) with
                | Some bs -> Bitset.union_into ~dst:acc bs
                | None -> Array.iter (fun z -> Bitset.set acc z) (Relation.adj_dst s y))
            ys;
          (* [drain] leaves [acc] empty for the next row. *)
          Bitset.drain acc
        end)
  in
  Pairs.of_rows_unchecked rows
