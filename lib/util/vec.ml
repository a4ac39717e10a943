type t = { mutable data : int array; mutable len : int }

let create ?(capacity = 16) () =
  { data = Array.make (max capacity 1) 0; len = 0 }

let length v = v.len

let get v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.get";
  Array.unsafe_get v.data i

let set v i x =
  if i < 0 || i >= v.len then invalid_arg "Vec.set";
  Array.unsafe_set v.data i x

let grow v needed =
  let cap = max needed (2 * Array.length v.data) in
  let data = Array.make cap 0 in
  Array.blit v.data 0 data 0 v.len;
  v.data <- data

let push v x =
  if v.len = Array.length v.data then grow v (v.len + 1);
  Array.unsafe_set v.data v.len x;
  v.len <- v.len + 1

let push2 v a b =
  if v.len + 2 > Array.length v.data then grow v (v.len + 2);
  Array.unsafe_set v.data v.len a;
  Array.unsafe_set v.data (v.len + 1) b;
  v.len <- v.len + 2

let clear v = v.len <- 0

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Vec.truncate";
  v.len <- n

let to_array v = Array.sub v.data 0 v.len

let sort_dedup v =
  if v.len > 1 then begin
    let a = v.data in
    Intsort.sort_sub a ~lo:0 ~hi:v.len;
    let w = ref 1 in
    for r = 1 to v.len - 1 do
      let x = Array.unsafe_get a r in
      if x <> Array.unsafe_get a (!w - 1) then begin
        Array.unsafe_set a !w x;
        incr w
      end
    done;
    v.len <- !w
  end

let iter f v =
  for i = 0 to v.len - 1 do
    f (Array.unsafe_get v.data i)
  done

let fold f init v =
  let acc = ref init in
  for i = 0 to v.len - 1 do
    acc := f !acc (Array.unsafe_get v.data i)
  done;
  !acc
