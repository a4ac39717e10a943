let insertion a lo hi =
  for i = lo + 1 to hi - 1 do
    let x = Array.unsafe_get a i in
    let j = ref (i - 1) in
    while !j >= lo && Array.unsafe_get a !j > x do
      Array.unsafe_set a (!j + 1) (Array.unsafe_get a !j);
      decr j
    done;
    Array.unsafe_set a (!j + 1) x
  done

(* LSD radix sort with 8-bit digits over the range [lo, hi).  One pass per
   significant byte of the maximum value: for the dictionary-encoded ids
   this project sorts (bounded by a relation's domain) that is 2-3 passes,
   ~5 operations per element — far cheaper than comparison sorting.  The
   256-entry digit table holds an exclusive prefix sum (the first output
   slot of each digit), which keeps it within the minor heap's size limit:
   a row of up to 256 ids sorts without touching the major heap. *)
let radix a lo hi max_v =
  let n = hi - lo in
  (let rec passes acc v = if v = 0 then acc else passes (acc + 1) (v lsr 8) in
   Obs_hook.note_radix ~elems:n ~passes:(passes 0 max_v));
  let tmp = Array.make n 0 in
  let count = Array.make 256 0 in
  (* work in [cur] which is either a (offset lo) or tmp (offset 0) *)
  let src = ref a and src_off = ref lo in
  let dst = ref tmp and dst_off = ref 0 in
  let shift = ref 0 in
  while max_v lsr !shift > 0 do
    Array.fill count 0 256 0;
    let s = !src and so = !src_off in
    for i = 0 to n - 1 do
      let d = (Array.unsafe_get s (so + i) lsr !shift) land 0xFF in
      Array.unsafe_set count d (Array.unsafe_get count d + 1)
    done;
    let sum = ref 0 in
    for d = 0 to 255 do
      let c = Array.unsafe_get count d in
      Array.unsafe_set count d !sum;
      sum := !sum + c
    done;
    let t = !dst and to_ = !dst_off in
    for i = 0 to n - 1 do
      let v = Array.unsafe_get s (so + i) in
      let d = (v lsr !shift) land 0xFF in
      Array.unsafe_set t (to_ + Array.unsafe_get count d) v;
      Array.unsafe_set count d (Array.unsafe_get count d + 1)
    done;
    let s', so' = (!src, !src_off) in
    src := !dst;
    src_off := !dst_off;
    dst := s';
    dst_off := so';
    shift := !shift + 8
  done;
  if !src != a then Array.blit !src 0 a lo n

(* Comparison fallback for ranges containing negative values (never the
   case for id arrays, but the module keeps a total contract). *)
let rec quicksort a lo hi =
  if hi - lo <= 16 then insertion a lo hi
  else begin
    let mid = lo + ((hi - lo) / 2) in
    let swap i j =
      let t = Array.unsafe_get a i in
      Array.unsafe_set a i (Array.unsafe_get a j);
      Array.unsafe_set a j t
    in
    if Array.unsafe_get a mid < Array.unsafe_get a lo then swap mid lo;
    if Array.unsafe_get a (hi - 1) < Array.unsafe_get a lo then swap (hi - 1) lo;
    if Array.unsafe_get a (hi - 1) < Array.unsafe_get a mid then swap (hi - 1) mid;
    swap mid (hi - 1);
    let pivot = Array.unsafe_get a (hi - 1) in
    let i = ref lo in
    for j = lo to hi - 2 do
      if Array.unsafe_get a j < pivot then begin
        swap !i j;
        incr i
      end
    done;
    swap !i (hi - 1);
    quicksort a lo !i;
    quicksort a (!i + 1) hi
  end

let sort_sub a ~lo ~hi =
  if lo < 0 || hi > Array.length a || lo > hi then invalid_arg "Intsort.sort_sub";
  let n = hi - lo in
  if n > 1 then begin
    if n <= 32 then insertion a lo hi
    else begin
      (* one scan decides radix vs comparison fallback *)
      let max_v = ref 0 and negative = ref false in
      for i = lo to hi - 1 do
        let v = Array.unsafe_get a i in
        if v < 0 then negative := true else if v > !max_v then max_v := v
      done;
      if !negative then quicksort a lo hi
      else if !max_v = 0 then () (* all zeros *)
      else radix a lo hi !max_v
    end
  end

let sort a = sort_sub a ~lo:0 ~hi:(Array.length a)
