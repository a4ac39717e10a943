module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Counted_pairs = Jp_relation.Counted_pairs
module Cancel = Jp_util.Cancel

let poll_rows = 4096

(* Static split: one contiguous range per domain, so each worker
   allocates its dom(z)-sized accumulator exactly once and reuses it
   across the sub-chunks between token polls. *)
let expand ?(domains = 1) ?cancel ?xs ?(keep_y = fun _ -> true) ~r ~s ~alloc
    ~scan ~finish ~empty () =
  let xs = match xs with Some a -> a | None -> Array.init (Relation.src_count r) Fun.id in
  let rows = Array.make (Relation.src_count r) empty in
  Jp_parallel.Pool.split_ranges ~domains ?cancel ~chunk:poll_rows ~lo:0
    ~hi:(Array.length xs) ~alloc (fun acc lo hi ->
      for idx = lo to hi - 1 do
        let a = xs.(idx) in
        Row_acc.start acc;
        Array.iter
          (fun b -> if keep_y b then scan acc (Relation.adj_dst s b))
          (Relation.adj_src r a);
        rows.(a) <- finish acc
      done;
      Row_acc.record acc;
      true);
  rows

let project ?domains ?cancel ?xs ?keep_y ~r ~s () =
  Jp_obs.span "wcoj.expand" (fun () ->
      Pairs.of_rows_unchecked
        (expand ?domains ?cancel ?xs ?keep_y ~r ~s
           ~alloc:(fun () -> Row_acc.create (Relation.src_count s))
           ~scan:Row_acc.scan ~finish:Row_acc.finish ~empty:[||] ()))

let project_counts ?domains ?cancel ?xs ?keep_y ~r ~s () =
  Jp_obs.span "wcoj.expand_counts" (fun () ->
      Counted_pairs.of_rows_unchecked
        (expand ?domains ?cancel ?xs ?keep_y ~r ~s
           ~alloc:(fun () -> Row_acc.create_counted (Relation.src_count s))
           ~scan:Row_acc.scan_counted ~finish:Row_acc.finish_counted
           ~empty:([||], [||]) ()))
