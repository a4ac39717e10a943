module Pairs = Jp_relation.Pairs
module Tuples = Jp_relation.Tuples

type t = { count : int; sum : int }

let empty = { count = 0; sum = 0 }

let equal a b = a.count = b.count && a.sum = b.sum

(* A 63-bit variant of the splitmix64 finalizer: cheap, and every input
   bit flips about half the output bits. *)
let mix h =
  let h = (h lxor (h lsr 31)) * 0x3F1D5A7B9C2E4D61 in
  let h = (h lxor (h lsr 29)) * 0x2545F4914F6CDD1D in
  h lxor (h lsr 32)

let hash_pair x z = mix ((mix (x + 1) * 31) + z)

let add_tuple t tup =
  let h = Array.fold_left (fun acc v -> mix ((acc * 31) + v + 1)) 17 tup in
  { count = t.count + 1; sum = t.sum + mix h }

let of_pairs p =
  let sum = ref 0 in
  Pairs.iter (fun x z -> sum := !sum + hash_pair x z) p;
  { count = Pairs.count p; sum = !sum }

let of_pair_list l =
  List.fold_left
    (fun t (x, z) -> { count = t.count + 1; sum = t.sum + hash_pair x z })
    empty l

let of_tuples ts =
  let acc = ref empty in
  Tuples.iter (fun tup -> acc := add_tuple !acc tup) ts;
  !acc

let to_string t = Printf.sprintf "%d/%016x" t.count (t.sum land max_int)
