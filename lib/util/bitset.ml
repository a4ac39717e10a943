(* 62 payload bits per word keeps every word operation on an immediate
   native int (63-bit) with one bit to spare, avoiding Int64 boxing. *)
let bits_per_word = 62

type t = { words : int array; width : int }

let width t = t.width

let word_count t = Array.length t.words

let create n =
  if n < 0 then invalid_arg "Bitset.create";
  { words = Array.make ((n + bits_per_word - 1) / bits_per_word + 1) 0; width = n }

let check t i =
  if i < 0 || i >= t.width then invalid_arg "Bitset: index out of bounds"

let set t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) lor (1 lsl b)

let unset t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) <- t.words.(w) land lnot (1 lsl b)

let set_all t a ~pos =
  if pos < 0 then invalid_arg "Bitset.set_all: negative start";
  let words = t.words in
  for k = pos to Array.length a - 1 do
    let i = Array.unsafe_get a k in
    check t i;
    let w = i / bits_per_word in
    Array.unsafe_set words w
      (Array.unsafe_get words w lor (1 lsl (i - (w * bits_per_word))))
  done

let mem t i =
  check t i;
  let w = i / bits_per_word and b = i mod bits_per_word in
  t.words.(w) land (1 lsl b) <> 0

let clear t = Array.fill t.words 0 (Array.length t.words) 0

(* SWAR popcount specialised to 62 significant bits (the top bit of the
   native int is always 0 here, so 64-bit constants truncated to 63 bits
   are safe). *)
let popcount x =
  let x = x - ((x lsr 1) land 0x1555555555555555) in
  let x = (x land 0x3333333333333333) + ((x lsr 2) land 0x3333333333333333) in
  let x = (x + (x lsr 4)) land 0x0F0F0F0F0F0F0F0F in
  (x * 0x0101010101010101) lsr 56

let count t =
  let c = ref 0 in
  for w = 0 to Array.length t.words - 1 do
    c := !c + popcount (Array.unsafe_get t.words w)
  done;
  !c

let is_empty t =
  let rec go w =
    w >= Array.length t.words || (t.words.(w) = 0 && go (w + 1))
  in
  go 0

let check_widths a b op =
  if a.width <> b.width then invalid_arg ("Bitset." ^ op ^ ": width mismatch")

let union_into ~dst src =
  check_widths dst src "union_into";
  let d = dst.words and s = src.words in
  for w = 0 to Array.length d - 1 do
    Array.unsafe_set d w (Array.unsafe_get d w lor Array.unsafe_get s w)
  done

(* OR [src] into [dst] starting at bit [off].  Payload words are shifted
   by [off mod 62]; the carry of the last payload word lands in the word
   after it, which is in bounds because [create] always allocates one
   spare trailing word and [off + width src <= width dst].  Source bits
   beyond [width src] are invariantly zero, so no bit beyond
   [off + width src) can be set. *)
let union_into_at ~dst off src =
  if off < 0 || off + src.width > dst.width then
    invalid_arg "Bitset.union_into_at: range out of bounds";
  let d = dst.words and s = src.words in
  let wi = off / bits_per_word and bo = off mod bits_per_word in
  let payload = (src.width + bits_per_word - 1) / bits_per_word in
  if bo = 0 then
    for w = 0 to payload - 1 do
      Array.unsafe_set d (wi + w)
        (Array.unsafe_get d (wi + w) lor Array.unsafe_get s w)
    done
  else begin
    let mask = (1 lsl bits_per_word) - 1 in
    for w = 0 to payload - 1 do
      let x = Array.unsafe_get s w in
      if x <> 0 then begin
        let i = wi + w in
        Array.unsafe_set d i
          (Array.unsafe_get d i lor ((x lsl bo) land mask));
        Array.unsafe_set d (i + 1)
          (Array.unsafe_get d (i + 1) lor (x lsr (bits_per_word - bo)))
      end
    done
  end

let inter_into ~dst src =
  check_widths dst src "inter_into";
  let d = dst.words and s = src.words in
  for w = 0 to Array.length d - 1 do
    Array.unsafe_set d w (Array.unsafe_get d w land Array.unsafe_get s w)
  done

let inter_count a b =
  check_widths a b "inter_count";
  let c = ref 0 in
  for w = 0 to Array.length a.words - 1 do
    c := !c + popcount (Array.unsafe_get a.words w land Array.unsafe_get b.words w)
  done;
  !c

(* Position of the lowest set bit of a non-zero word.  Its isolated bit
   [2^b] (b < 62) is looked up by its residue mod 67: 2 is a primitive
   root mod 67, so the 62 powers have distinct residues.  A division by
   a constant and one load: fewer dependent operations than the popcount
   of [2^b - 1]. *)
let bit_of_residue =
  let t = Array.make 67 0 in
  for b = 0 to bits_per_word - 1 do
    t.((1 lsl b) mod 67) <- b
  done;
  t

let lowest_bit word = Array.unsafe_get bit_of_residue ((word land -word) mod 67)

let iter f t =
  for w = 0 to Array.length t.words - 1 do
    let word = ref (Array.unsafe_get t.words w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      f (base + lowest_bit !word);
      word := !word land (!word - 1)
    done
  done

(* Two passes over the words: a popcount pass sizes the output exactly,
   then one ascending scan writes every set position, zeroing each word
   behind it when [clear] is set. *)
let positions ~clear t =
  let words = t.words in
  let out = Array.make (count t) 0 in
  let k = ref 0 in
  for w = 0 to Array.length words - 1 do
    let word = ref (Array.unsafe_get words w) in
    if !word <> 0 then begin
      if clear then Array.unsafe_set words w 0;
      let base = w * bits_per_word in
      while !word <> 0 do
        Array.unsafe_set out !k (base + lowest_bit !word);
        incr k;
        word := !word land (!word - 1)
      done
    end
  done;
  out

let to_array t = positions ~clear:false t

let drain t = positions ~clear:true t

let scatter_into ~dst src map =
  if Array.length map < src.width then
    invalid_arg "Bitset.scatter_into: map narrower than source";
  let d = dst.words and s = src.words in
  for w = 0 to Array.length s - 1 do
    let word = ref (Array.unsafe_get s w) in
    let base = w * bits_per_word in
    while !word <> 0 do
      let i = Array.unsafe_get map (base + lowest_bit !word) in
      check dst i;
      let dw = i / bits_per_word in
      Array.unsafe_set d dw
        (Array.unsafe_get d dw lor (1 lsl (i - (dw * bits_per_word))));
      word := !word land (!word - 1)
    done
  done

let to_list t =
  let acc = ref [] in
  iter (fun i -> acc := i :: !acc) t;
  List.rev !acc

let of_sorted_array n positions =
  let t = create n in
  set_all t positions ~pos:0;
  t

let copy t = { words = Array.copy t.words; width = t.width }

let equal a b = a.width = b.width && a.words = b.words
