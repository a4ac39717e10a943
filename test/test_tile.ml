module Boolmat = Jp_matrix.Boolmat
module Intmat = Jp_matrix.Intmat
module Tile = Jp_tile
module Cancel = Jp_util.Cancel

let random_boolmat seed ~rows ~cols ~density =
  let g = Jp_util.Rng.create seed in
  let m = Boolmat.create ~rows ~cols in
  for i = 0 to rows - 1 do
    for j = 0 to cols - 1 do
      if Jp_util.Rng.float g 1.0 < density then Boolmat.set m i j
    done
  done;
  m

let cfg ?budget_bytes ?(tile_bits = 4) () = Tile.config ~tile_bits ?budget_bytes ()

(* Tiled vs flat on dimensions that are not tile multiples: boundary
   tiles are ragged on every side, and with 16-wide tiles the column
   offsets are never 62-aligned, so the OR-blit carry path is hot. *)
let test_mul_matches_flat () =
  let a = random_boolmat 1 ~rows:70 ~cols:131 ~density:0.08 in
  let b = random_boolmat 2 ~rows:131 ~cols:90 ~density:0.08 in
  let tiled =
    Tile.mul (cfg ()) (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)
  in
  Alcotest.(check bool) "tiled = flat" true
    (Boolmat.equal tiled (Boolmat.mul a b))

let test_count_matches_flat () =
  let a = random_boolmat 3 ~rows:53 ~cols:117 ~density:0.15 in
  let b = random_boolmat 4 ~rows:41 ~cols:117 ~density:0.15 in
  let tiled =
    Tile.count_product (cfg ())
      (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)
  in
  Alcotest.(check bool) "tiled = flat" true
    (Intmat.equal tiled (Boolmat.count_product a b))

let test_tile_bits_sweep () =
  let a = random_boolmat 5 ~rows:97 ~cols:64 ~density:0.1 in
  let b = random_boolmat 6 ~rows:64 ~cols:129 ~density:0.1 in
  let expect = Boolmat.mul a b in
  List.iter
    (fun bits ->
      let got =
        Tile.mul
          (cfg ~tile_bits:bits ())
          (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)
      in
      Alcotest.(check bool)
        (Printf.sprintf "tile_bits=%d" bits)
        true (Boolmat.equal got expect))
    [ 4; 5; 6; 7; 8 ]

(* Matrices smaller than one tile take the single-tile degenerate
   schedule; empty operands produce empty (all-zero / zero-dim) results. *)
let test_single_tile_and_empty () =
  let a = random_boolmat 7 ~rows:9 ~cols:11 ~density:0.3 in
  let b = random_boolmat 8 ~rows:11 ~cols:5 ~density:0.3 in
  let got =
    Tile.mul (cfg ~tile_bits:8 ())
      (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)
  in
  Alcotest.(check bool) "single tile" true (Boolmat.equal got (Boolmat.mul a b));
  let z = Boolmat.create ~rows:6 ~cols:13 in
  let zb = Boolmat.create ~rows:13 ~cols:4 in
  let got =
    Tile.mul (cfg ()) (Tile.Source.of_boolmat z) (Tile.Source.of_boolmat zb)
  in
  Alcotest.(check int) "all-empty tiles" 0 (Boolmat.nnz got);
  let e = Boolmat.create ~rows:0 ~cols:0 in
  let got = Tile.mul (cfg ()) (Tile.Source.of_boolmat e) (Tile.Source.of_boolmat e) in
  Alcotest.(check int) "zero-dim" 0 (Boolmat.rows got)

let test_parallel_matches_sequential () =
  let a = random_boolmat 9 ~rows:80 ~cols:100 ~density:0.1 in
  let b = random_boolmat 10 ~rows:100 ~cols:77 ~density:0.1 in
  let sa = Tile.Source.of_boolmat a and sb = Tile.Source.of_boolmat b in
  Alcotest.(check bool) "mul domains=4 = domains=1" true
    (Boolmat.equal (Tile.mul ~domains:4 (cfg ()) sa sb)
       (Tile.mul ~domains:1 (cfg ()) sa sb));
  let c = random_boolmat 11 ~rows:60 ~cols:90 ~density:0.2 in
  let d = random_boolmat 12 ~rows:50 ~cols:90 ~density:0.2 in
  let sc = Tile.Source.of_boolmat c and sd = Tile.Source.of_boolmat d in
  Alcotest.(check bool) "count domains=4 = domains=1" true
    (Intmat.equal
       (Tile.count_product ~domains:4 (cfg ()) sc sd)
       (Tile.count_product ~domains:1 (cfg ()) sc sd))

let test_dim_mismatch () =
  let a = Boolmat.create ~rows:2 ~cols:3 and b = Boolmat.create ~rows:5 ~cols:4 in
  Alcotest.check_raises "mul"
    (Invalid_argument "Jp_tile.mul: dimension mismatch (2x3 . 5x4)") (fun () ->
      ignore
        (Tile.mul (cfg ()) (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)));
  Alcotest.check_raises "count_product"
    (Invalid_argument "Jp_tile.count_product: inner dim mismatch (2x3 . (5x4)T)")
    (fun () ->
      ignore
        (Tile.count_product (cfg ())
           (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b)))

let tile_counters () =
  List.filter
    (fun (name, _) -> String.length name >= 5 && String.sub name 0 5 = "tile.")
    (Jp_obs.counter_values ())

let with_obs f =
  Jp_obs.reset ();
  Jp_obs.enable ();
  Fun.protect ~finally:(fun () -> Jp_obs.disable (); Jp_obs.reset ()) f

(* A budget far below the operands' total tile bytes forces eviction and
   rebuild mid-product; the result must not change, the resident peak
   must respect the cap, and — at domains = 1, where the fetch order is
   fixed — the whole build/hit/evict trace must be reproducible. *)
let test_eviction_determinism () =
  let a = random_boolmat 13 ~rows:128 ~cols:128 ~density:0.2 in
  let b = random_boolmat 14 ~rows:128 ~cols:128 ~density:0.2 in
  let sa = Tile.Source.of_boolmat a and sb = Tile.Source.of_boolmat b in
  let budget = 2048 in
  let expect = Boolmat.mul a b in
  let run () =
    with_obs (fun () ->
        let got = Tile.mul (cfg ~budget_bytes:budget ()) sa sb in
        Alcotest.(check bool) "capped = flat" true (Boolmat.equal got expect);
        tile_counters ())
  in
  let first = run () in
  let evicted = try List.assoc "tile.evict" first with Not_found -> 0 in
  let peak = try List.assoc "tile.peak_bytes" first with Not_found -> 0 in
  Alcotest.(check bool) "budget forces eviction" true (evicted > 0);
  Alcotest.(check bool)
    (Printf.sprintf "peak %d <= budget %d" peak budget)
    true (peak <= budget);
  Alcotest.(check (list (pair string int))) "trace reproducible" first (run ())

(* With no budget every operand tile is built exactly once and the
   store footprint drains back to zero at the end of the product. *)
let test_store_accounting () =
  let a = random_boolmat 15 ~rows:64 ~cols:48 ~density:0.2 in
  let b = random_boolmat 16 ~rows:48 ~cols:64 ~density:0.2 in
  let resident () = Jp_metrics.gauge_value Jp_metrics.G.tile_bytes in
  let counters, drained =
    with_obs (fun () ->
        let before = resident () in
        ignore
          (Tile.mul (cfg ())
             (Tile.Source.of_boolmat a) (Tile.Source.of_boolmat b));
        (tile_counters (), resident () - before))
  in
  let get k = try List.assoc k counters with Not_found -> 0 in
  (* 4x3 a-tiles + 3x4 b-tiles at 16-wide tiles. *)
  Alcotest.(check int) "builds" 24 (get "tile.build");
  Alcotest.(check int) "products" 16 (get "tile.product");
  Alcotest.(check int) "no evictions" 0 (get "tile.evict");
  Alcotest.(check bool) "hits" true (get "tile.store_hit" > 0);
  Alcotest.(check int) "footprint drained" 0 drained;
  Alcotest.(check bool) "peak recorded" true (get "tile.peak_bytes" > 0)

let test_memo_per_tile () =
  let a = random_boolmat 17 ~rows:40 ~cols:40 ~density:0.2 in
  let b = random_boolmat 18 ~rows:40 ~cols:40 ~density:0.2 in
  let sa = Tile.Source.of_boolmat a and sb = Tile.Source.of_boolmat b in
  let served = Hashtbl.create 16 in
  let memo ~ti ~tj build =
    match Hashtbl.find_opt served (ti, tj) with
    | Some t -> t
    | None ->
      let t = build () in
      Hashtbl.add served (ti, tj) t;
      t
  in
  let first = Tile.mul ~memo (cfg ()) sa sb in
  (* 40/16 -> 3x3 output tiles, each consulted once. *)
  Alcotest.(check int) "one consult per tile" 9 (Hashtbl.length served);
  let again = Tile.mul ~memo (cfg ()) sa sb in
  Alcotest.(check bool) "memo-served = computed" true (Boolmat.equal first again);
  Alcotest.(check bool) "flat agrees" true (Boolmat.equal first (Boolmat.mul a b))

let test_checkpoint_and_cancel () =
  let a = random_boolmat 19 ~rows:64 ~cols:64 ~density:0.2 in
  let sa = Tile.Source.of_boolmat a in
  let ticks = ref 0 in
  ignore
    (Tile.mul ~checkpoint:(fun () -> Stdlib.incr ticks) (cfg ()) sa sa);
  Alcotest.(check int) "one checkpoint per output tile" 16 !ticks;
  let c = Cancel.create () in
  Cancel.cancel c;
  Alcotest.check_raises "cancelled" (Cancel.Cancelled Cancel.Requested)
    (fun () -> ignore (Tile.mul ~cancel:c (cfg ()) sa sa))

let suite =
  [
    Alcotest.test_case "mul matches flat" `Quick test_mul_matches_flat;
    Alcotest.test_case "count matches flat" `Quick test_count_matches_flat;
    Alcotest.test_case "tile_bits sweep" `Quick test_tile_bits_sweep;
    Alcotest.test_case "single tile / empty" `Quick test_single_tile_and_empty;
    Alcotest.test_case "parallel = sequential" `Quick
      test_parallel_matches_sequential;
    Alcotest.test_case "dim mismatch" `Quick test_dim_mismatch;
    Alcotest.test_case "eviction determinism" `Quick test_eviction_determinism;
    Alcotest.test_case "store accounting" `Quick test_store_accounting;
    Alcotest.test_case "memo per tile" `Quick test_memo_per_tile;
    Alcotest.test_case "checkpoint and cancel" `Quick test_checkpoint_and_cancel;
  ]
