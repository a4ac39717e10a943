type t = {
  src_count : int;
  dst_count : int;
  size : int;
  fwd : int array array; (* x -> strictly increasing ys *)
  bwd : int array array; (* y -> strictly increasing xs *)
  mutable fp : int; (* memoized fingerprint; 0 = not yet computed *)
}

(* Build one direction of adjacency from a flat pair buffer by counting
   sort: O(|R| + ids).  [get_src]/[get_dst] select the orientation. *)
let build_adjacency ~rows ~npairs ~get_src ~get_dst =
  let counts = Array.make rows 0 in
  for p = 0 to npairs - 1 do
    let s = get_src p in
    counts.(s) <- counts.(s) + 1
  done;
  let adj = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make rows 0 in
  for p = 0 to npairs - 1 do
    let s = get_src p and d = get_dst p in
    adj.(s).(fill.(s)) <- d;
    fill.(s) <- fill.(s) + 1
  done;
  adj

let sort_dedup_rows adj =
  let removed = ref 0 in
  Array.iteri
    (fun i row ->
      if Array.length row > 1 then begin
        Jp_util.Intsort.sort row;
        let w = ref 1 in
        for r = 1 to Array.length row - 1 do
          if row.(r) <> row.(!w - 1) then begin
            row.(!w) <- row.(r);
            incr w
          end
        done;
        if !w < Array.length row then begin
          removed := !removed + (Array.length row - !w);
          adj.(i) <- Array.sub row 0 !w
        end
      end)
    adj;
  !removed

let rebuild_from_fwd ~src_count ~dst_count fwd =
  let size = Array.fold_left (fun acc row -> acc + Array.length row) 0 fwd in
  let counts = Array.make dst_count 0 in
  Array.iter (Array.iter (fun d -> counts.(d) <- counts.(d) + 1)) fwd;
  let bwd = Array.map (fun c -> Array.make c 0) counts in
  let fill = Array.make dst_count 0 in
  Array.iteri
    (fun x row ->
      Array.iter
        (fun d ->
          bwd.(d).(fill.(d)) <- x;
          fill.(d) <- fill.(d) + 1)
        row)
    fwd;
  { src_count; dst_count; size; fwd; bwd; fp = 0 }

(* Visiting x in increasing order in [rebuild_from_fwd] keeps every bwd row
   sorted for free. *)
let of_flat ?src_count ?dst_count flat =
  let npairs = Array.length flat / 2 in
  if Array.length flat mod 2 <> 0 then invalid_arg "Relation.of_flat: odd length";
  let max_src = ref (-1) and max_dst = ref (-1) in
  for p = 0 to npairs - 1 do
    let s = flat.(2 * p) and d = flat.((2 * p) + 1) in
    if s < 0 || d < 0 then invalid_arg "Relation.of_flat: negative id";
    if s > !max_src then max_src := s;
    if d > !max_dst then max_dst := d
  done;
  let src_count = match src_count with Some n -> n | None -> !max_src + 1 in
  let dst_count = match dst_count with Some n -> n | None -> !max_dst + 1 in
  if !max_src >= src_count || !max_dst >= dst_count then
    invalid_arg "Relation.of_flat: id exceeds declared count";
  let fwd =
    build_adjacency ~rows:src_count ~npairs
      ~get_src:(fun p -> flat.(2 * p))
      ~get_dst:(fun p -> flat.((2 * p) + 1))
  in
  ignore (sort_dedup_rows fwd);
  rebuild_from_fwd ~src_count ~dst_count fwd

let of_edges ?src_count ?dst_count edges =
  let flat = Array.make (2 * Array.length edges) 0 in
  Array.iteri
    (fun i (s, d) ->
      flat.(2 * i) <- s;
      flat.((2 * i) + 1) <- d)
    edges;
  of_flat ?src_count ?dst_count flat

let of_sets ?dst_count sets =
  let total = Array.fold_left (fun acc s -> acc + Array.length s) 0 sets in
  let flat = Array.make (2 * total) 0 in
  let p = ref 0 in
  Array.iteri
    (fun i elems ->
      Array.iter
        (fun e ->
          flat.(2 * !p) <- i;
          flat.((2 * !p) + 1) <- e;
          incr p)
        elems)
    sets;
  of_flat ~src_count:(Array.length sets) ?dst_count flat

let of_adjacency ~dst_count fwd =
  Array.iter
    (fun row ->
      if not (Jp_util.Sorted.is_strictly_sorted row) then
        invalid_arg "Relation.of_adjacency: row not strictly increasing")
    fwd;
  rebuild_from_fwd ~src_count:(Array.length fwd) ~dst_count fwd

let size r = r.size

let src_count r = r.src_count

let dst_count r = r.dst_count

let deg_src r a = Array.length r.fwd.(a)

let deg_dst r b = Array.length r.bwd.(b)

let adj_src r a = r.fwd.(a)

let adj_dst r b = r.bwd.(b)

let mem r a b = Jp_util.Sorted.mem r.fwd.(a) b

let iter f r =
  Array.iteri (fun x row -> Array.iter (fun y -> f x y) row) r.fwd

let to_edges r =
  let out = Array.make r.size (0, 0) in
  let p = ref 0 in
  iter
    (fun x y ->
      out.(!p) <- (x, y);
      incr p)
    r;
  out

let transpose r =
  {
    src_count = r.dst_count;
    dst_count = r.src_count;
    size = r.size;
    fwd = r.bwd;
    bwd = r.fwd;
    fp = 0;
  }

let filter r keep =
  let fwd =
    Array.mapi
      (fun x row ->
        let kept = Array.to_list row |> List.filter (fun y -> keep x y) in
        Array.of_list kept)
      r.fwd
  in
  rebuild_from_fwd ~src_count:r.src_count ~dst_count:r.dst_count fwd

let restrict_src r keep =
  let fwd = Array.mapi (fun x row -> if keep x then row else [||]) r.fwd in
  rebuild_from_fwd ~src_count:r.src_count ~dst_count:r.dst_count fwd

let semijoin_dst r keep =
  let fwd =
    Array.map
      (fun row ->
        let n = Array.fold_left (fun acc y -> if keep y then acc + 1 else acc) 0 row in
        if n = Array.length row then row
        else begin
          let kept = Array.make n 0 in
          let i = ref 0 in
          Array.iter
            (fun y ->
              if keep y then begin
                kept.(!i) <- y;
                incr i
              end)
            row;
          kept
        end)
      r.fwd
  in
  rebuild_from_fwd ~src_count:r.src_count ~dst_count:r.dst_count fwd

let join_size_on_dst = function
  | [] -> invalid_arg "Relation.join_size_on_dst: empty list"
  | first :: rest ->
    let total = ref 0 in
    for b = 0 to first.dst_count - 1 do
      let prod =
        List.fold_left
          (fun acc r -> if b < r.dst_count then acc * deg_dst r b else 0)
          (deg_dst first b) rest
      in
      total := !total + prod
    done;
    !total

let active_dst = function
  | [] -> invalid_arg "Relation.active_dst: empty list"
  | first :: rest ->
    let n = List.fold_left (fun acc r -> max acc r.dst_count) first.dst_count rest in
    Array.init n (fun b ->
        b < first.dst_count
        && deg_dst first b > 0
        && List.for_all (fun r -> b < r.dst_count && deg_dst r b > 0) rest)

let equal a b =
  a.src_count = b.src_count && a.dst_count = b.dst_count && a.fwd = b.fwd

(* Splitmix-style avalanche over the declared id spaces and every fwd row.
   The constants fit OCaml's 63-bit native int; overflow wraps, which is
   fine for hashing.  O(|R|) on first call, memoized afterwards: relations
   are immutable once built (all constructors funnel through
   [rebuild_from_fwd]), so a single computation at load is sound. *)
let mix h x =
  let h = h lxor (x + 0x9e3779b97f4a7c1 + (h lsl 6) + (h lsr 2)) in
  let h = (h lxor (h lsr 30)) * 0x5851f42d4c957f2 in
  h lxor (h lsr 27)

let fingerprint r =
  if r.fp <> 0 then r.fp
  else begin
    let h = ref (mix (mix 0x27220a95 r.src_count) r.dst_count) in
    Array.iter
      (fun row ->
        h := mix !h (Array.length row);
        Array.iter (fun y -> h := mix !h y) row)
      r.fwd;
    let f = if !h = 0 then 1 else !h in
    r.fp <- f;
    f
  end

let pp fmt r =
  Format.fprintf fmt "@[<v>relation %dx%d, %d tuples@," r.src_count r.dst_count r.size;
  let shown = ref 0 in
  (try
     iter
       (fun x y ->
         if !shown >= 10 then raise Exit;
         Format.fprintf fmt "(%d, %d)@," x y;
         incr shown)
       r
   with Exit -> Format.fprintf fmt "...@,");
  Format.fprintf fmt "@]"
