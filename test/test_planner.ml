(* Unit + property tests for Jp_query.Planner: fragment eligibility,
   greedy claiming, cost-gate dispatch, rendering and plan-shape
   invariants over the seeded random-CQ generator. *)

module Cq = Jp_query.Cq
module Planner = Jp_query.Planner
module Engine = Jp_query.Engine
module Relation = Jp_relation.Relation
module Tuples = Jp_relation.Tuples

let parse_ok s =
  match Cq.parse s with Ok q -> q | Error e -> Alcotest.failf "parse failed: %s" e

let plan_ok ?policy ?catalog q =
  match Planner.plan ?policy ?catalog q with
  | Ok t -> t
  | Error e -> Alcotest.failf "plan failed: %s" e

let join_vars t = List.map (fun f -> f.Planner.join_var) (Planner.candidates t)

let catalog3 =
  lazy
    (List.map
       (fun (name, seed) ->
         (name, Gen.random_relation ~seed ~nx:6 ~ny:6 ~edges:14 ()))
       [ ("R", 11); ("S", 12); ("T", 13) ])

(* ------------------------------------------------------------------ *)
(* eligibility                                                         *)

let test_candidates_path () =
  (* Q(a, d) :- R(a, b), S(b, c), T(c, d): both interior variables are
     structurally carvable; under Never_mm they are reported but none is
     carved, so the plan is pure Yannakakis. *)
  let q = parse_ok "Q(a, d) :- R(a, b), S(b, c), T(c, d)" in
  let t = plan_ok ~policy:Planner.Never_mm q in
  Alcotest.(check (list string)) "candidates" [ "b"; "c" ] (join_vars t);
  Alcotest.(check int) "none carved" 0 (List.length (Planner.fragments t));
  Alcotest.(check string) "describe" "acyclic query via Yannakakis"
    (Planner.describe t)

let test_greedy_claiming () =
  (* Under Always_mm the first candidate (b) claims atoms 0 and 1; c then
     overlaps atom 1 and is dropped entirely. *)
  let q = parse_ok "Q(a, d) :- R(a, b), S(b, c), T(c, d)" in
  let t = plan_ok ~policy:Planner.Always_mm q in
  Alcotest.(check (list string)) "only b survives" [ "b" ] (join_vars t);
  (match Planner.fragments t with
  | [ f ] ->
    Alcotest.(check (list int)) "claims atoms 0,1" [ 0; 1 ]
      (List.map (fun p -> p.Planner.atom) f.Planner.parts);
    Alcotest.(check (list string)) "out vars" [ "a"; "c" ]
      (List.map (fun p -> p.Planner.out_var) f.Planner.parts);
    Alcotest.(check (list bool)) "orientation" [ false; true ]
      (List.map (fun p -> p.Planner.transposed) f.Planner.parts)
  | fs -> Alcotest.failf "expected 1 fragment, got %d" (List.length fs));
  Alcotest.(check string) "describe"
    "decomposed: 1 two-path MM fragment + 1 scan via Yannakakis"
    (Planner.describe t)

let test_head_var_blocks () =
  (* b is in the head: the existential is not local, so no candidate. *)
  let q = parse_ok "Q(a, b, c) :- R(a, b), S(b, c)" in
  let t = plan_ok ~policy:Planner.Always_mm q in
  Alcotest.(check (list string)) "no candidates" [] (join_vars t)

let test_constant_blocks () =
  (* An atom pinning b against a constant is not Var-Var: b is out. *)
  let q = parse_ok "Q(a, c) :- R(a, b), S(b, c), T(b, 3)" in
  let t = plan_ok ~policy:Planner.Always_mm q in
  Alcotest.(check (list string)) "constant occurrence blocks b" []
    (join_vars t)

let test_repeated_out_var_blocks () =
  (* Both occurrences of y have the same out variable x: the fragment
     projection would conflate the two roles, so y is not carvable
     (and x has the symmetric problem). *)
  let q = parse_ok "Q() :- R(x, y), S(x, y)" in
  let t = plan_ok ~policy:Planner.Always_mm q in
  Alcotest.(check (list string)) "parallel edge blocks both" []
    (join_vars t)

let test_self_loop_blocks () =
  (* R(y, y) binds y on both sides — not a 2-path/star part. *)
  let q = parse_ok "Q(a) :- R(a, y), S(y, y)" in
  let t = plan_ok ~policy:Planner.Always_mm q in
  Alcotest.(check (list string)) "self loop blocks y" [] (join_vars t)

let test_star_fragment () =
  (* k = 3 star around c, with mixed orientation. *)
  let q = parse_ok "Q(a, b, d) :- R(a, c), S(c, b), T(c, d)" in
  let t = plan_ok ~policy:Planner.Always_mm q in
  (match Planner.fragments t with
  | [ f ] ->
    Alcotest.(check string) "join var" "c" f.Planner.join_var;
    Alcotest.(check int) "k" 3 (List.length f.Planner.parts)
  | fs -> Alcotest.failf "expected 1 fragment, got %d" (List.length fs));
  Alcotest.(check string) "describe"
    "decomposed: 1 star MM fragment + 0 scans via Yannakakis"
    (Planner.describe t)

let test_cyclic_rejected () =
  let q = parse_ok "Q(a) :- R(a, b), S(b, c), T(c, a)" in
  match Planner.plan ~policy:Planner.Always_mm q with
  | Error e ->
    Alcotest.(check string) "cyclic error" "query is cyclic (GYO reduction failed)" e
  | Ok _ -> Alcotest.fail "expected cyclic rejection"

(* ------------------------------------------------------------------ *)
(* cost gate                                                           *)

(* A machine where matrix work is free and index inserts are ruinous:
   with skewed data whose join size clears the WCOJ short-circuit
   (join_size > 20 n), the optimizer picks the partitioned plan and the
   gate says mm.  The inverse machine keeps the gate off. *)
let mm_loving_machine =
  {
    Jp_matrix.Cost.ts = 1e-12;
    tm = 1e-12;
    ti = 1.0;
    count_word = 1e-12;
    bool_word = 1e-12;
    cores = 1;
  }

let mm_averse_machine =
  {
    Jp_matrix.Cost.ts = 1.0;
    tm = 1e-12;
    ti = 1e-12;
    count_word = 1.0;
    bool_word = 1.0;
    cores = 1;
  }

(* Full bipartite over a tiny y domain: join_size = ny * nx^2 clears the
   WCOJ short-circuit (> 20 * nx * ny edges) while |OUT| = nx^2 stays a
   factor ny below it — the regime where the partitioned MM plan wins. *)
let skewed_catalog =
  lazy
    (let dense ~nx ~ny =
       let flat = Array.make (2 * nx * ny) 0 in
       for x = 0 to nx - 1 do
         for y = 0 to ny - 1 do
           let i = (x * ny) + y in
           flat.(2 * i) <- x;
           flat.((2 * i) + 1) <- y
         done
       done;
       Relation.of_flat ~src_count:nx ~dst_count:ny flat
     in
     [ ("R", dense ~nx:40 ~ny:3); ("S", dense ~nx:40 ~ny:3) ])

(* The cost gate prices plans with the process-wide machine model; [f]
   runs with it pinned to [m]. *)
let with_machine m f =
  let prev = Jp_matrix.Cost.machine () in
  Jp_matrix.Cost.set_machine m;
  Fun.protect ~finally:(fun () -> Jp_matrix.Cost.set_machine prev) f

let test_cost_gate_carves () =
  with_machine mm_loving_machine @@ fun () ->
  let q = parse_ok "Q(a, c) :- R(a, b), S(c, b)" in
  let catalog = Lazy.force skewed_catalog in
  let t = plan_ok ~policy:Planner.Cost_gate ~catalog q in
  (match Planner.fragments t with
  | [ f ] -> (
    match f.Planner.gate with
    | Some g ->
      Alcotest.(check bool) "gate says mm" true g.Joinproj.Fragment.mm;
      Alcotest.(check bool) "mm cheaper than safe" true
        (g.Joinproj.Fragment.est_mm_s < g.Joinproj.Fragment.est_safe_s)
    | None -> Alcotest.fail "cost-gated fragment must carry a gate verdict")
  | fs -> Alcotest.failf "expected 1 carved fragment, got %d" (List.length fs));
  (* the carved plan and the foil agree on the answer *)
  let run policy =
    match Planner.run ~policy catalog q with
    | Ok out -> Tuples.to_list out
    | Error e -> Alcotest.failf "run failed: %s" e
  in
  Alcotest.(check bool) "carved = foil" true
    (run Planner.Cost_gate = run Planner.Never_mm)

let test_cost_gate_declines () =
  (* Same query, machine with free inserts: WCOJ wins, nothing carved,
     but the candidate is still reported with its verdict. *)
  with_machine mm_averse_machine @@ fun () ->
  let q = parse_ok "Q(a, c) :- R(a, b), S(c, b)" in
  let catalog = Lazy.force skewed_catalog in
  let t = plan_ok ~policy:Planner.Cost_gate ~catalog q in
  Alcotest.(check int) "nothing carved" 0 (List.length (Planner.fragments t));
  match Planner.candidates t with
  | [ f ] -> (
    match f.Planner.gate with
    | Some g -> Alcotest.(check bool) "gate says no" false g.Joinproj.Fragment.mm
    | None -> Alcotest.fail "candidate must carry a gate verdict under Cost_gate")
  | fs -> Alcotest.failf "expected 1 candidate, got %d" (List.length fs)

let test_forced_policies_skip_gate () =
  let q = parse_ok "Q(a, c) :- R(a, b), S(c, b)" in
  let catalog = Lazy.force skewed_catalog in
  List.iter
    (fun policy ->
      let t = plan_ok ~policy ~catalog q in
      List.iter
        (fun f ->
          match f.Planner.gate with
          | None -> ()
          | Some _ -> Alcotest.fail "forced policy must not pay for the gate")
        (Planner.candidates t))
    [ Planner.Always_mm; Planner.Never_mm ]

(* ------------------------------------------------------------------ *)
(* execution                                                           *)

let test_run_matches_brute () =
  let catalog = Lazy.force catalog3 in
  List.iter
    (fun text ->
      let q = parse_ok text in
      let expect = Gen.brute_cq catalog q in
      List.iter
        (fun policy ->
          match Planner.run ~policy catalog q with
          | Ok out ->
            Alcotest.(check (list (list int)))
              (text ^ " (planner)")
              expect (Tuples.to_list out)
          | Error e -> Alcotest.failf "%s: %s" text e)
        [ Planner.Cost_gate; Planner.Always_mm; Planner.Never_mm ])
    [
      "Q(a, d) :- R(a, b), S(b, c), T(c, d)";
      "Q(a, b, d) :- R(a, c), S(c, b), T(c, d)";
      "Q(a) :- R(a, b), S(c, b), T(c, d)";
      "Q(a, a) :- R(a, b), S(c, b)";
    ]

let test_boolean_matches_brute () =
  let catalog = Lazy.force catalog3 in
  List.iter
    (fun text ->
      let q = parse_ok text in
      let expect = Gen.brute_cq_boolean catalog q in
      List.iter
        (fun policy ->
          match Planner.boolean ~policy catalog q with
          | Ok b -> Alcotest.(check bool) text expect b
          | Error e -> Alcotest.failf "%s: %s" text e)
        [ Planner.Cost_gate; Planner.Always_mm; Planner.Never_mm ])
    [ "Q() :- R(a, b), S(c, b)"; "Q() :- R(a, b), S(b, c), T(c, d)" ]

let test_run_rejects_empty_head () =
  let catalog = Lazy.force catalog3 in
  let q = parse_ok "Q() :- R(a, b)" in
  match Planner.run catalog q with
  | Error e ->
    Alcotest.(check string) "empty head" "boolean query: use Yannakakis.boolean" e
  | Ok _ -> Alcotest.fail "expected empty-head rejection"

let test_unknown_relation () =
  let catalog = Lazy.force catalog3 in
  let q = parse_ok "Q(a) :- R(a, b), X(b, c)" in
  match Planner.run ~policy:Planner.Always_mm catalog q with
  | Error e -> Alcotest.(check string) "unknown" "unknown relation: X" e
  | Ok _ -> Alcotest.fail "expected unknown-relation error"

let test_explain_rendering () =
  let q = parse_ok "Q(a, d) :- R(a, b), S(b, c), T(c, d)" in
  let t = plan_ok ~policy:Planner.Always_mm q in
  Alcotest.(check string) "explain"
    (String.concat "\n"
       [
         "stitch Q(a, d) via Yannakakis over 2 bags";
         "  mm two-path on b: R(a, b) * S(b, c)";
         "  scan T(c, d)";
         "";
       ])
    (Planner.explain t);
  let t = plan_ok ~policy:Planner.Never_mm q in
  Alcotest.(check string) "explain foil"
    (String.concat "\n"
       [
         "stitch Q(a, d) via Yannakakis over 3 bags";
         "  scan R(a, b)";
         "  scan S(b, c)";
         "  scan T(c, d)";
         "";
       ])
    (Planner.explain t)

(* ------------------------------------------------------------------ *)
(* plan-shape property over the random-CQ generator                    *)

let prop_plan_shape =
  QCheck.Test.make ~name:"plan shape invariants on random acyclic CQs" ~count:200
    QCheck.small_int (fun seed ->
      let { Gen.query = q; _ } = Gen.random_cq ~seed () in
      match Planner.plan ~policy:Planner.Always_mm q with
      | Error e -> QCheck.Test.fail_reportf "generator produced cyclic query: %s" e
      | Ok t ->
        let body = Array.of_list q.Cq.body in
        let claimed = Hashtbl.create 8 in
        List.iter
          (fun f ->
            let parts = f.Planner.parts in
            (* >= 2 parts, join var projected away *)
            if List.length parts < 2 then
              QCheck.Test.fail_reportf "fragment with < 2 parts on %s"
                f.Planner.join_var;
            if List.mem f.Planner.join_var q.Cq.head then
              QCheck.Test.fail_reportf "head variable %s carved"
                f.Planner.join_var;
            (* out vars pairwise distinct, never the join var *)
            let outs = List.map (fun p -> p.Planner.out_var) parts in
            if
              List.length (List.sort_uniq String.compare outs)
              <> List.length outs
              || List.mem f.Planner.join_var outs
            then QCheck.Test.fail_reportf "bad out vars on %s" f.Planner.join_var;
            List.iter
              (fun p ->
                (* claimed atoms are disjoint across fragments *)
                if Hashtbl.mem claimed p.Planner.atom then
                  QCheck.Test.fail_reportf "atom %d claimed twice" p.Planner.atom;
                Hashtbl.add claimed p.Planner.atom ();
                (* each part really contains the join var exactly once,
                   opposite the recorded out var *)
                match body.(p.Planner.atom).Cq.args with
                | Cq.Var a, Cq.Var b ->
                  let jv = f.Planner.join_var in
                  if p.Planner.transposed then (
                    if not (a = jv && b = p.Planner.out_var) then
                      QCheck.Test.fail_reportf "bad transposed part %d"
                        p.Planner.atom)
                  else if not (b = jv && a = p.Planner.out_var) then
                    QCheck.Test.fail_reportf "bad part %d" p.Planner.atom
                | _ ->
                  QCheck.Test.fail_reportf "non Var-Var atom %d carved"
                    p.Planner.atom)
              parts)
          (Planner.fragments t);
        (* every atom appears exactly once across fragments + scans *)
        let scans =
          match Planner.root t with
          | Planner.Stitch { children; _ } ->
            List.filter_map
              (function Planner.Scan { atom; _ } -> Some atom | _ -> None)
              children
          | _ -> []
        in
        List.iter
          (fun a ->
            if Hashtbl.mem claimed a then
              QCheck.Test.fail_reportf "atom %d both scanned and carved" a)
          scans;
        Hashtbl.length claimed + List.length scans = Array.length body)

let suite =
  [
    Alcotest.test_case "path candidates" `Quick test_candidates_path;
    Alcotest.test_case "greedy claiming" `Quick test_greedy_claiming;
    Alcotest.test_case "head var blocks carving" `Quick test_head_var_blocks;
    Alcotest.test_case "constant blocks carving" `Quick test_constant_blocks;
    Alcotest.test_case "repeated out var blocks" `Quick test_repeated_out_var_blocks;
    Alcotest.test_case "self loop blocks" `Quick test_self_loop_blocks;
    Alcotest.test_case "star fragment" `Quick test_star_fragment;
    Alcotest.test_case "cyclic rejected" `Quick test_cyclic_rejected;
    Alcotest.test_case "cost gate carves" `Quick test_cost_gate_carves;
    Alcotest.test_case "cost gate declines" `Quick test_cost_gate_declines;
    Alcotest.test_case "forced policies skip gate" `Quick test_forced_policies_skip_gate;
    Alcotest.test_case "run matches brute force" `Quick test_run_matches_brute;
    Alcotest.test_case "boolean matches brute force" `Quick test_boolean_matches_brute;
    Alcotest.test_case "empty head rejected" `Quick test_run_rejects_empty_head;
    Alcotest.test_case "unknown relation" `Quick test_unknown_relation;
    Alcotest.test_case "explain rendering" `Quick test_explain_rendering;
    QCheck_alcotest.to_alcotest prop_plan_shape;
  ]
