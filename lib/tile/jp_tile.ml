module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Bitset = Jp_util.Bitset
module Vec = Jp_util.Vec
module Cancel = Jp_util.Cancel
module Obs = Jp_obs
module Metrics = Jp_metrics
module Pool = Jp_parallel.Pool

type config = { tile_bits : int; budget_bytes : int option; force : bool }

let default_tile_bits = 9

let config ?(tile_bits = default_tile_bits) ?budget_bytes ?(force = false) () =
  { tile_bits = max 4 (min 20 tile_bits); budget_bytes; force }

module Source = struct
  type t = { rows : int; cols : int; adj : int -> int array }

  let of_adjacency ~rows ~cols adj =
    if rows < 0 || cols < 0 then invalid_arg "Jp_tile.Source.of_adjacency";
    { rows; cols; adj }

  let of_boolmat m =
    let adj i =
      let out = Vec.create () in
      Boolmat.iter_row m i (fun j -> Vec.push out j);
      Vec.to_array out
    in
    { rows = Boolmat.rows m; cols = Boolmat.cols m; adj }

  let rows s = s.rows

  let cols s = s.cols
end

(* Number of tile blocks covering [n] positions at [ts] per tile. *)
let blocks n ts = (n + ts - 1) / ts

let tile_bytes_of m = (Boolmat.rows m * ((Boolmat.cols m + 61) / 62) * 8) + 64

(* Build one operand tile: rows [r0, r0+th), inner columns [c0, c0+tw)
   of [src], remapped to a th×tw block.  Also returns the number of
   adjacency entries scanned — the deterministic build-cost proxy that
   seeds the tile's LANDLORD credit (wall clocks would make eviction
   order nondeterministic). *)
let build_tile (src : Source.t) ~r0 ~th ~c0 ~tw =
  let m = Boolmat.create ~rows:th ~cols:tw in
  let scanned = ref 0 in
  for i = 0 to th - 1 do
    let row = src.Source.adj (r0 + i) in
    scanned := !scanned + Array.length row;
    Array.iter
      (fun j -> if j >= c0 && j < c0 + tw then Boolmat.set m i (j - c0))
      row
  done;
  (m, !scanned)

(* ------------------------------------------------------------------ *)
(* Bounded resident store for operand tiles                            *)
(*                                                                     *)
(* One store per product invocation, covering both operands' tiles in  *)
(* a dense slot array (a-tiles first, then b-tiles).  LANDLORD like    *)
(* Jp_cache: every resident tile holds credit seeded by its build-cost *)
(* proxy and refreshed on hit; to admit a new tile, subtract the       *)
(* smallest credit-per-byte rate from everyone and evict whoever hits  *)
(* zero, in insertion order (deterministic for a fixed fetch order,    *)
(* i.e. whenever [domains = 1]).  Tiles are immutable, so an evicted   *)
(* tile still in use by another domain is simply rebuilt on next miss. *)

type entry = {
  t_bytes : int;
  t_cost : float;
  mutable t_credit : float;
  t_seq : int;
  t_tile : Boolmat.t;
}

type store = {
  lock : Mutex.t;
  budget : int option;
  slots : entry option array;
  mutable resident : int;
  mutable peak : int;
  mutable live : int;
  mutable seq : int;
}

let store_create ~budget ~nslots =
  {
    lock = Mutex.create ();
    budget;
    slots = Array.make nslots None;
    resident = 0;
    peak = 0;
    live = 0;
    seq = 0;
  }

let locked st f =
  Mutex.lock st.lock;
  match f () with
  | x ->
    Mutex.unlock st.lock;
    x
  | exception e ->
    Mutex.unlock st.lock;
    raise e

let drop_slot st idx e =
  st.slots.(idx) <- None;
  st.resident <- st.resident - e.t_bytes;
  st.live <- st.live - 1

(* Assumes the lock is held.  Each round the minimum-rate entry reaches
   zero, so at least one tile is evicted and the loop terminates. *)
let evict_until st ~need =
  match st.budget with
  | None -> 0
  | Some b ->
    let evicted = ref 0 in
    while st.resident + need > b && st.live > 0 do
      let min_rate = ref infinity in
      Array.iter
        (fun slot ->
          match slot with
          | None -> ()
          | Some e ->
            let rate = e.t_credit /. float_of_int (max 1 e.t_bytes) in
            if rate < !min_rate then min_rate := rate)
        st.slots;
      let victims = ref [] in
      Array.iteri
        (fun idx slot ->
          match slot with
          | None -> ()
          | Some e ->
            e.t_credit <-
              e.t_credit -. (!min_rate *. float_of_int (max 1 e.t_bytes));
            if e.t_credit <= 1e-12 then victims := (idx, e) :: !victims)
        st.slots;
      let victims =
        List.sort (fun (_, a) (_, b) -> Int.compare a.t_seq b.t_seq) !victims
      in
      List.iter
        (fun (idx, e) ->
          if st.slots.(idx) != None then begin
            drop_slot st idx e;
            Stdlib.incr evicted
          end)
        victims
    done;
    !evicted

(* Fetch-or-build.  The build runs outside the lock so misses on
   distinct tiles proceed in parallel; two domains missing on the same
   tile may both build it — the tiles are pure, so the second insert
   just replaces the first.  Counter cadence: one bump batch per fetch
   (= per tile), never per word. *)
let store_fetch st idx build =
  let hit =
    locked st (fun () ->
        match st.slots.(idx) with
        | Some e ->
          e.t_credit <- Float.max e.t_credit e.t_cost;
          Some e.t_tile
        | None -> None)
  in
  match hit with
  | Some tile ->
    Obs.incr Obs.C.tile_store_hits;
    tile
  | None ->
    let tile, scanned = build () in
    let bytes = tile_bytes_of tile in
    let admit = match st.budget with None -> true | Some b -> bytes <= b in
    let evicted, delta, grew =
      locked st (fun () ->
          if not admit then (0, 0, 0)
          else begin
            let evicted =
              (match st.slots.(idx) with
              | Some old -> drop_slot st idx old
              | None -> ());
              evict_until st ~need:bytes
            in
            let e =
              {
                t_bytes = bytes;
                t_cost = 1.0 +. float_of_int scanned;
                t_credit = 1.0 +. float_of_int scanned;
                t_seq = st.seq;
                t_tile = tile;
              }
            in
            st.seq <- st.seq + 1;
            st.slots.(idx) <- Some e;
            st.resident <- st.resident + bytes;
            st.live <- st.live + 1;
            let grew = max 0 (st.resident - st.peak) in
            st.peak <- max st.peak st.resident;
            (evicted, bytes, grew)
          end)
    in
    Obs.incr Obs.C.tile_builds;
    if evicted > 0 then Obs.add Obs.C.tile_evictions evicted;
    if delta <> 0 then Metrics.add_gauge Metrics.G.tile_bytes delta;
    if grew > 0 then Obs.add Obs.C.tile_peak_bytes grew;
    tile

(* Release the whole store's footprint at the end of a product (the
   tiles themselves are garbage once the result is blitted). *)
let store_drain st =
  let bytes =
    locked st (fun () ->
        let b = st.resident in
        Array.iteri
          (fun idx slot ->
            match slot with Some e -> drop_slot st idx e | None -> ())
          st.slots;
        b)
  in
  if bytes <> 0 then Metrics.add_gauge Metrics.G.tile_bytes (-bytes)

(* ------------------------------------------------------------------ *)
(* Product schedule                                                    *)

let run_checkpoint = function Some f -> f () | None -> ()

(* Boolean product: output tile (ti, tj) is the OR over inner blocks k
   of A(ti,k)·B(k,tj), accumulated into a th×tw scratch and OR-blitted
   into the result rows at the tile's column offset.  Tiles of one
   block-row overlap on the boundary words of the shared result rows
   (2^k is not a multiple of 62), so blits serialize on a per-block-row
   mutex; ORs commute, so the result is independent of blit order. *)
let mul ?(domains = 1) ?cancel ?checkpoint ?memo cfg (a : Source.t)
    (b : Source.t) =
  if a.Source.cols <> b.Source.rows then
    invalid_arg
      (Printf.sprintf "Jp_tile.mul: dimension mismatch (%dx%d . %dx%d)"
         a.Source.rows a.Source.cols b.Source.rows b.Source.cols);
  Obs.span "tile.mul" (fun () ->
      let ts = 1 lsl cfg.tile_bits in
      let u = a.Source.rows and v = a.Source.cols and w = b.Source.cols in
      let result = Boolmat.create ~rows:u ~cols:w in
      let t_i = blocks u ts and t_k = blocks v ts and t_j = blocks w ts in
      if t_i = 0 || t_j = 0 then result
      else begin
        let store =
          store_create ~budget:cfg.budget_bytes
            ~nslots:((t_i * t_k) + (t_k * t_j))
        in
        let a_slot ti k = (ti * t_k) + k in
        let b_slot k tj = (t_i * t_k) + (k * t_j) + tj in
        let row_locks = Array.init t_i (fun _ -> Mutex.create ()) in
        let obs = Obs.recording () in
        let body t =
          let ti = t / t_j and tj = t mod t_j in
          run_checkpoint checkpoint;
          Obs.span "tile.mul_tile" (fun () ->
              let r0 = ti * ts and c0 = tj * ts in
              let th = min ts (u - r0) and tw = min ts (w - c0) in
              let compute () =
                let acc = Boolmat.create ~rows:th ~cols:tw in
                let unions = ref 0 in
                for k = 0 to t_k - 1 do
                  let k0 = k * ts in
                  let kw = min ts (v - k0) in
                  let at =
                    store_fetch store (a_slot ti k) (fun () ->
                        build_tile a ~r0 ~th ~c0:k0 ~tw:kw)
                  in
                  let bt =
                    store_fetch store (b_slot k tj) (fun () ->
                        build_tile b ~r0:k0 ~th:kw ~c0 ~tw)
                  in
                  for i = 0 to th - 1 do
                    let dst = Boolmat.row acc i in
                    Boolmat.iter_row at i (fun kk ->
                        Stdlib.incr unions;
                        Bitset.union_into ~dst (Boolmat.row bt kk))
                  done
                done;
                if obs then begin
                  let words_per_row = (tw + 61) / 62 in
                  Obs.add Obs.C.mm_bool_word_ops (!unions * words_per_row)
                end;
                acc
              in
              let tile =
                match memo with None -> compute () | Some m -> m ~ti ~tj compute
              in
              Mutex.lock row_locks.(ti);
              for i = 0 to th - 1 do
                Bitset.union_into_at
                  ~dst:(Boolmat.row result (r0 + i))
                  c0 (Boolmat.row tile i)
              done;
              Mutex.unlock row_locks.(ti);
              Obs.incr Obs.C.tile_products)
        in
        Pool.parallel_for ~domains ~chunk:1 ?cancel ~lo:0 ~hi:(t_i * t_j) body;
        store_drain store;
        Cancel.check_opt cancel;
        result
      end)

(* Count product: a : u×v and b : w×v over the same inner dimension.
   Output tile (ti, tj) owns the disjoint cell block
   [r0, r0+th) × [c0, c0+tw) of the result, so no blit locks are
   needed; inner-tile partial counts are exact integer sums. *)
let count_product ?(domains = 1) ?cancel ?checkpoint ?memo cfg (a : Source.t)
    (b : Source.t) =
  if a.Source.cols <> b.Source.cols then
    invalid_arg
      (Printf.sprintf
         "Jp_tile.count_product: inner dim mismatch (%dx%d . (%dx%d)T)"
         a.Source.rows a.Source.cols b.Source.rows b.Source.cols);
  Obs.span "tile.count_product" (fun () ->
      let ts = 1 lsl cfg.tile_bits in
      let u = a.Source.rows and v = a.Source.cols and w = b.Source.rows in
      let result = Intmat.create ~rows:u ~cols:w in
      let t_i = blocks u ts and t_k = blocks v ts and t_j = blocks w ts in
      if t_i = 0 || t_j = 0 then result
      else begin
        let store =
          store_create ~budget:cfg.budget_bytes
            ~nslots:((t_i * t_k) + (t_j * t_k))
        in
        let a_slot ti k = (ti * t_k) + k in
        let b_slot tj k = (t_i * t_k) + (tj * t_k) + k in
        let obs = Obs.recording () in
        let body t =
          let ti = t / t_j and tj = t mod t_j in
          run_checkpoint checkpoint;
          Obs.span "tile.count_tile" (fun () ->
              let r0 = ti * ts and c0 = tj * ts in
              let th = min ts (u - r0) and tw = min ts (w - c0) in
              let compute () =
                let acc = Intmat.create ~rows:th ~cols:tw in
                let words = ref 0 in
                for k = 0 to t_k - 1 do
                  let k0 = k * ts in
                  let kw = min ts (v - k0) in
                  let at =
                    store_fetch store (a_slot ti k) (fun () ->
                        build_tile a ~r0 ~th ~c0:k0 ~tw:kw)
                  in
                  let bt =
                    store_fetch store (b_slot tj k) (fun () ->
                        build_tile b ~r0:c0 ~th:tw ~c0:k0 ~tw:kw)
                  in
                  for i = 0 to th - 1 do
                    let arow = Boolmat.row at i in
                    if not (Bitset.is_empty arow) then begin
                      words := !words + (tw * Bitset.word_count arow);
                      for l = 0 to tw - 1 do
                        let n = Bitset.inter_count arow (Boolmat.row bt l) in
                        if n > 0 then
                          Intmat.set acc i l (Intmat.get acc i l + n)
                      done
                    end
                  done
                done;
                if obs then Obs.add Obs.C.mm_count_word_ops !words;
                acc
              in
              let tile =
                match memo with None -> compute () | Some m -> m ~ti ~tj compute
              in
              for i = 0 to th - 1 do
                for l = 0 to tw - 1 do
                  let n = Intmat.get tile i l in
                  if n > 0 then Intmat.set result (r0 + i) (c0 + l) n
                done
              done;
              Obs.incr Obs.C.tile_products)
        in
        Pool.parallel_for ~domains ~chunk:1 ?cancel ~lo:0 ~hi:(t_i * t_j) body;
        store_drain store;
        Cancel.check_opt cancel;
        result
      end)
