let sorted xs =
  if Array.length xs = 0 then invalid_arg "Stats: empty sample";
  let s = Array.copy xs in
  Array.sort Float.compare s;
  s

let percentile xs p =
  let s = sorted xs in
  let n = Array.length s in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  s.(max 0 (min (n - 1) (rank - 1)))

let median xs = percentile xs 50.

type tail = { value : float; pct : float; beyond : int; samples : int }

let min_beyond = 10

let tail xs =
  let s = sorted xs in
  let n = Array.length s in
  let k = max 0 (n - 1 - min_beyond) in
  let beyond = n - 1 - k in
  {
    value = s.(k);
    pct = 100. *. float_of_int (n - beyond) /. float_of_int n;
    beyond;
    samples = n;
  }

let latency_from_due ~due ~submitted ~queued_s ~ran_s =
  Float.max 0. (submitted -. due) +. queued_s +. ran_s
