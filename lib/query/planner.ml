module Relation = Jp_relation.Relation
module Pairs = Jp_relation.Pairs
module Tuples = Jp_relation.Tuples
module Cancel = Jp_util.Cancel
module Fragment = Joinproj.Fragment

type policy = Cost_gate | Always_mm | Never_mm

type part = {
  atom : int;
  relation : string;
  out_var : string;
  transposed : bool;
}

type fragment = {
  join_var : string;
  parts : part list;
  mm : bool;
  gate : Fragment.gate option;
}

type node =
  | Scan of { atom : int; relation : string }
  | Mm of fragment
  | Stitch of { head : string list; children : node list }

type t = { query : Cq.t; root : node; candidates : fragment list }

let query t = t.query

let root t = t.root

let candidates t = t.candidates

let fragments t = List.filter (fun f -> f.mm) t.candidates

(* ------------------------------------------------------------------ *)
(* fragment extraction                                                 *)
(* ------------------------------------------------------------------ *)

(* A join variable y is carvable iff: y is not in the head; y occurs in
   >= 2 atoms; every atom containing y is Var-Var with distinct variables
   and exactly one side equal to y; and the opposite ("out") variables
   are pairwise distinct.  Then y is local to those atoms, so replacing
   them with the projection of their join (a derived bag over the out
   variables) preserves the query: the existential over y commutes with
   the remaining joins.  The fragment is exactly the 2-path (k = 2) or
   k-star shape the MM engines evaluate output-sensitively. *)
let classify_part ~join_var idx atom =
  match atom.Cq.args with
  | Cq.Var a, Cq.Var b when a = join_var && b <> join_var ->
    Some { atom = idx; relation = atom.Cq.relation; out_var = b; transposed = true }
  | Cq.Var a, Cq.Var b when b = join_var && a <> join_var ->
    Some { atom = idx; relation = atom.Cq.relation; out_var = a; transposed = false }
  | _ -> None

let candidate_parts q y =
  let rec collect idx acc = function
    | [] -> Some (List.rev acc)
    | atom :: rest ->
      if List.mem y (Cq.atom_vars atom) then (
        match classify_part ~join_var:y idx atom with
        | None -> None
        | Some p -> collect (idx + 1) (p :: acc) rest)
      else collect (idx + 1) acc rest
  in
  match collect 0 [] q.Cq.body with
  | None -> None
  | Some parts ->
    let outs = List.map (fun p -> p.out_var) parts in
    if
      List.length parts >= 2
      && List.length (List.sort_uniq String.compare outs) = List.length outs
    then Some parts
    else None

(* Orient a part's relation so the join variable sits on the destination
   side — the layout Two_path.project / Star.project expect. *)
let resolve_part catalog p =
  match List.assoc_opt p.relation catalog with
  | None -> Error ("unknown relation: " ^ p.relation)
  | Some rel -> Ok (if p.transposed then Relation.transpose rel else rel)

let resolve_parts catalog parts =
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | p :: rest -> (
      match resolve_part catalog p with
      | Ok rel -> go (rel :: acc) rest
      | Error e -> Error e)
  in
  go [] parts

let gate_of ?machine ?domains catalog parts =
  match resolve_parts catalog parts with
  | Error _ -> None
  | Ok rels ->
    if Array.length rels = 2 then
      Some (Fragment.gate_two_path ?machine ?domains ~r:rels.(0) ~s:rels.(1) ())
    else Some (Fragment.gate_star ?machine ?domains rels)

let plan ?machine ?domains ?(policy = Cost_gate) ?catalog q =
  match Hypergraph.join_tree q with
  | None -> Error "query is cyclic (GYO reduction failed)"
  | Some _ ->
    let body = Array.of_list q.Cq.body in
    let n = Array.length body in
    let claimed = Array.make n false in
    let candidates = ref [] in
    List.iter
      (fun y ->
        if not (List.mem y q.Cq.head) then
          match candidate_parts q y with
          | None -> ()
          | Some parts ->
            if List.for_all (fun p -> not claimed.(p.atom)) parts then begin
              (* The gate (an O(N) Optimizer.prepare per candidate) only
                 runs when its verdict decides something: under the forced
                 policies the foil/forced timings must not pay for it. *)
              let gate =
                match (policy, catalog) with
                | Cost_gate, Some cat -> gate_of ?machine ?domains cat parts
                | _ -> None
              in
              let mm =
                match policy with
                | Never_mm -> false
                | Always_mm -> true
                | Cost_gate -> (
                  match gate with Some g -> g.Fragment.mm | None -> false)
              in
              if mm then List.iter (fun p -> claimed.(p.atom) <- true) parts;
              candidates := { join_var = y; parts; mm; gate } :: !candidates
            end)
      (Cq.vars q);
    let candidates = List.rev !candidates in
    let carved = List.filter (fun f -> f.mm) candidates in
    let starts_fragment idx =
      List.find_opt
        (fun f -> match f.parts with p :: _ -> p.atom = idx | [] -> false)
        carved
    in
    let children = ref [] in
    for idx = n - 1 downto 0 do
      if claimed.(idx) then (
        match starts_fragment idx with
        | Some f -> children := Mm f :: !children
        | None -> ())
      else
        children := Scan { atom = idx; relation = body.(idx).Cq.relation } :: !children
    done;
    Ok
      {
        query = q;
        root = Stitch { head = q.Cq.head; children = !children };
        candidates;
      }

(* ------------------------------------------------------------------ *)
(* rendering                                                           *)
(* ------------------------------------------------------------------ *)

let describe t =
  match fragments t with
  | [] -> "acyclic query via Yannakakis"
  | frags ->
    let two_paths, stars =
      List.partition (fun f -> List.length f.parts = 2) frags
    in
    let scans =
      match t.root with
      | Stitch { children; _ } ->
        List.length (List.filter (function Scan _ -> true | _ -> false) children)
      | _ -> 0
    in
    let shape_counts =
      String.concat " + "
        (List.filter
           (fun s -> s <> "")
           [
             (match List.length two_paths with
             | 0 -> ""
             | k -> Printf.sprintf "%d two-path" k);
             (match List.length stars with
             | 0 -> ""
             | k -> Printf.sprintf "%d star" k);
           ])
    in
    Printf.sprintf "decomposed: %s MM fragment%s + %d scan%s via Yannakakis"
      shape_counts
      (if List.length frags = 1 then "" else "s")
      scans
      (if scans = 1 then "" else "s")

let term_to_string = function Cq.Var v -> v | Cq.Const k -> string_of_int k

let atom_to_string atom =
  let a, b = atom.Cq.args in
  Printf.sprintf "%s(%s, %s)" atom.Cq.relation (term_to_string a)
    (term_to_string b)

let fragment_line body f =
  let shape =
    if List.length f.parts = 2 then "two-path"
    else Printf.sprintf "star k=%d" (List.length f.parts)
  in
  let atoms =
    String.concat " * " (List.map (fun p -> atom_to_string body.(p.atom)) f.parts)
  in
  let gate =
    match f.gate with
    | None -> ""
    | Some g ->
      if g.Fragment.mm then
        Printf.sprintf "  [est mm %.3es vs safe %.3es]" g.Fragment.est_mm_s
          g.Fragment.est_safe_s
      else Printf.sprintf "  [gated off: safe %.3es]" g.Fragment.est_safe_s
  in
  Printf.sprintf "mm %s on %s: %s%s" shape f.join_var atoms gate

let explain t =
  let body = Array.of_list t.query.Cq.body in
  let buf = Buffer.create 256 in
  let rec render indent node =
    let pad = String.make (2 * indent) ' ' in
    match node with
    | Stitch { head; children } ->
      Buffer.add_string buf
        (Printf.sprintf "%sstitch Q(%s) via Yannakakis over %d bag%s\n" pad
           (String.concat ", " head)
           (List.length children)
           (if List.length children = 1 then "" else "s"));
      List.iter (render (indent + 1)) children
    | Mm f -> Buffer.add_string buf (pad ^ fragment_line body f ^ "\n")
    | Scan { atom; _ } ->
      Buffer.add_string buf
        (pad ^ "scan " ^ atom_to_string body.(atom) ^ "\n")
  in
  render 0 t.root;
  Buffer.contents buf

(* ------------------------------------------------------------------ *)
(* execution                                                           *)
(* ------------------------------------------------------------------ *)

let bag_of_fragment ?domains ?guard ?cancel ?cache catalog f =
  match resolve_parts catalog f.parts with
  | Error e -> Error e
  | Ok rels ->
    let vars = List.map (fun p -> p.out_var) f.parts in
    if Array.length rels = 2 then begin
      let r = rels.(0) and s = rels.(1) in
      let memo =
        match cache with
        | None -> None
        | Some c -> Some (Jp_cache.two_path_memo c ~r ~s)
      in
      let pairs = Fragment.two_path ?domains ?guard ?cancel ?memo ~r ~s () in
      let rows = ref [] in
      Pairs.iter (fun x z -> rows := [| x; z |] :: !rows) pairs;
      Ok (Bag.make ~vars !rows)
    end
    else begin
      let tuples = Fragment.star ?guard ?cancel rels in
      let rows = ref [] in
      Tuples.iter (fun tup -> rows := Array.copy tup :: !rows) tuples;
      Ok (Bag.make ~vars !rows)
    end

let bags_of_plan ?domains ?guard ?cancel ?cache catalog t =
  let body = Array.of_list t.query.Cq.body in
  let children =
    match t.root with Stitch { children; _ } -> children | n -> [ n ]
  in
  let rec go acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | Scan { atom; relation } :: rest -> (
      match List.assoc_opt relation catalog with
      | None -> Error ("unknown relation: " ^ relation)
      | Some rel -> go (Bag.of_relation rel body.(atom) :: acc) rest)
    | Mm f :: rest -> (
      match bag_of_fragment ?domains ?guard ?cancel ?cache catalog f with
      | Ok bag -> go (bag :: acc) rest
      | Error e -> Error e)
    | Stitch _ :: _ -> Error "internal: nested stitch node"
  in
  go [] children

let run ?machine ?domains ?policy ?guard ?cancel ?cache catalog q =
  if q.Cq.head = [] then Error "boolean query: use Yannakakis.boolean"
  else
    match plan ?machine ?domains ?policy ~catalog q with
    | Error e -> Error e
    | Ok t -> (
      match bags_of_plan ?domains ?guard ?cancel ?cache catalog t with
      | Error e -> Error e
      | Ok bags -> Yannakakis.run_bags ?cancel ~head:q.Cq.head bags)

let boolean ?machine ?domains ?policy ?guard ?cancel ?cache catalog q =
  match plan ?machine ?domains ?policy ~catalog q with
  | Error e -> Error e
  | Ok t -> (
    match bags_of_plan ?domains ?guard ?cancel ?cache catalog t with
    | Error e -> Error e
    | Ok bags -> Yannakakis.boolean_bags ?cancel bags)
