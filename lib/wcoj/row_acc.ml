module Vec = Jp_util.Vec
module Bitset = Jp_util.Bitset

(* A row starts sparse: ids are deduplicated with [stamps] (a cell is
   live iff it holds the current row's [stamp], so nothing is cleared
   between rows) and collected in [buf], to be radix-sorted at the end.
   Once it holds [spill_at] distinct ids it spills: what [buf] holds is
   set in [acc], a bitset over the id domain, and later ids go straight
   to [acc]; the row is then written by one ascending [Bitset.drain],
   which also leaves [acc] empty for the next row.  [spill_at] is about
   one id per word of [acc], the density from which a scan of the words
   costs less than sorting the row, and depends only on the width.
   [counts] (empty for a boolean accumulator) holds the current row's
   multiplicity of each live id; it needs the stamp check even on a
   spilled row, to tell a first witness from a repeated one.

   [scanned], [extra] and [produced] tally the ids presented from lists,
   the ids presented from product rows, and the ids written to rows,
   until {!record} publishes them. *)
type t = {
  stamps : int array;
  counts : int array;
  buf : Vec.t;
  acc : Bitset.t;
  spill_at : int;
  mutable stamp : int;
  mutable spilled : bool;
  mutable scanned : int;
  mutable extra : int;
  mutable produced : int;
}

let make ~counts n =
  let acc = Bitset.create n in
  {
    stamps = Array.make n (-1);
    counts = (if counts then Array.make n 0 else [||]);
    buf = Vec.create ~capacity:256 ();
    acc;
    spill_at = max 32 (Bitset.word_count acc);
    stamp = -1;
    spilled = false;
    scanned = 0;
    extra = 0;
    produced = 0;
  }

let create n = make ~counts:false n

let create_counted n = make ~counts:true n

(* A row that spilled but was never finished leaves bits in [acc]. *)
let start t =
  if t.spilled then begin
    Bitset.clear t.acc;
    t.spilled <- false
  end;
  t.stamp <- t.stamp + 1;
  Vec.clear t.buf

(* Marks [c] as seen in the current row; [true] on its first sight. *)
let fresh t c =
  Array.unsafe_get t.stamps c <> t.stamp
  && begin
    Array.unsafe_set t.stamps c t.stamp;
    true
  end

(* Moves the row's ids so far into [acc]; later ids go straight there. *)
let spill t =
  t.spilled <- true;
  Vec.iter (Bitset.set t.acc) t.buf

(* Collects [c], known to be new to the current row. *)
let collect t c =
  if t.spilled then Bitset.set t.acc c
  else begin
    Vec.push t.buf c;
    if Vec.length t.buf >= t.spill_at then spill t
  end

(* A spilled boolean row skips the stamp check: the bitset dedups. *)
let scan t zs =
  let n = Array.length zs in
  t.scanned <- t.scanned + n;
  let j = ref 0 in
  while !j < n && not t.spilled do
    let c = Array.unsafe_get zs !j in
    if fresh t c then collect t c;
    incr j
  done;
  if !j < n then Bitset.set_all t.acc zs ~pos:!j

let bump t c k =
  if fresh t c then begin
    Array.unsafe_set t.counts c k;
    collect t c
  end
  else Array.unsafe_set t.counts c (Array.unsafe_get t.counts c + k)

let scan_counted t zs =
  t.scanned <- t.scanned + Array.length zs;
  for j = 0 to Array.length zs - 1 do
    bump t (Array.unsafe_get zs j) 1
  done

let scan_weighted t ids ks =
  if Array.length ks < Array.length ids then
    invalid_arg "Row_acc.scan_weighted: fewer weights than ids";
  for l = 0 to Array.length ids - 1 do
    let k = Array.unsafe_get ks l in
    if k > 0 then begin
      t.extra <- t.extra + 1;
      bump t (Array.unsafe_get ids l) k
    end
  done

let distinct t = if t.spilled then Bitset.count t.acc else Vec.length t.buf

let finish t =
  let row =
    if t.spilled then begin
      t.spilled <- false;
      Bitset.drain t.acc
    end
    else begin
      Vec.sort_dedup t.buf;
      Vec.to_array t.buf
    end
  in
  t.produced <- t.produced + Array.length row;
  row

(* A row whose only contribution is [bits]: [map] is ascending, so the
   set positions mapped through it already are the sorted, distinct
   row.  Otherwise the row spills before taking [bits] in if they would
   take it past the spill point; below it no id of them can. *)
let finish_mapped t bits map =
  let nnz = Bitset.count bits in
  t.extra <- t.extra + nnz;
  if Vec.length t.buf = 0 then begin
    let row = Bitset.to_array bits in
    Array.iteri (fun k l -> Array.unsafe_set row k (Array.unsafe_get map l)) row;
    t.produced <- t.produced + nnz;
    row
  end
  else begin
    if (not t.spilled) && Vec.length t.buf + nnz >= t.spill_at then spill t;
    if t.spilled then Bitset.scatter_into ~dst:t.acc bits map
    else
      Bitset.iter
        (fun l ->
          let c = Array.unsafe_get map l in
          if fresh t c then collect t c)
        bits;
    finish t
  end

let finish_counted t =
  let zs = finish t in
  let cs = Array.make (Array.length zs) 0 in
  for k = 0 to Array.length zs - 1 do
    Array.unsafe_set cs k (Array.unsafe_get t.counts (Array.unsafe_get zs k))
  done;
  (zs, cs)

let record t =
  if Jp_obs.recording () then begin
    Jp_obs.add Jp_obs.C.light_probes t.scanned;
    Jp_obs.add Jp_obs.C.stamp_misses t.produced;
    Jp_obs.add Jp_obs.C.stamp_hits (t.scanned + t.extra - t.produced)
  end;
  t.scanned <- 0;
  t.extra <- 0;
  t.produced <- 0
