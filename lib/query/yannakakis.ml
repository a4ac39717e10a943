module Relation = Jp_relation.Relation
module Tuples = Jp_relation.Tuples
module Cancel = Jp_util.Cancel

type catalog = (string * Relation.t) list

let load_bags catalog q =
  let bags =
    List.map
      (fun atom ->
        match List.assoc_opt atom.Cq.relation catalog with
        | Some rel -> Ok (Bag.of_relation rel atom)
        | None -> Error ("unknown relation: " ^ atom.Cq.relation))
      q.Cq.body
  in
  let rec collect acc = function
    | [] -> Ok (Array.of_list (List.rev acc))
    | Ok b :: rest -> collect (b :: acc) rest
    | Error e :: _ -> Error e
  in
  collect [] bags

(* The full semijoin program over an arbitrary bag array: the join tree
   comes from the bags' variable sets (a bag may be a binary atom or a
   derived fragment output of any arity).  [cancel] is polled at the three
   phase boundaries, never per tuple. *)
let evaluate_bags ?cancel ~head bags =
  match Hypergraph.join_tree_sets (Array.map Bag.vars bags) with
  | None -> Error "query is cyclic (GYO reduction failed)"
  | Some tree ->
    let bags = Array.copy bags in
    let non_root =
      List.filter (fun e -> tree.Hypergraph.parent.(e) >= 0) tree.Hypergraph.order
    in
    (* 1. bottom-up semijoin *)
    Cancel.check_opt cancel;
    List.iter
      (fun e ->
        let p = tree.Hypergraph.parent.(e) in
        bags.(p) <- Bag.semijoin bags.(p) bags.(e))
      non_root;
    (* 2. top-down semijoin *)
    Cancel.check_opt cancel;
    List.iter
      (fun e ->
        let p = tree.Hypergraph.parent.(e) in
        bags.(e) <- Bag.semijoin bags.(e) bags.(p))
      (List.rev non_root);
    (* 3. bottom-up join with projection: keep head variables plus the
       parent's own columns (the running-intersection property makes
       them the only connectors to the rest of the tree) *)
    Cancel.check_opt cancel;
    List.iter
      (fun e ->
        let p = tree.Hypergraph.parent.(e) in
        let keep =
          head @ List.filter (fun v -> not (List.mem v head)) (Bag.vars bags.(p))
        in
        bags.(p) <- Bag.join_project bags.(p) bags.(e) ~keep)
      non_root;
    let root = List.nth tree.Hypergraph.order (List.length tree.Hypergraph.order - 1) in
    Ok bags.(root)

let run_bags ?cancel ~head bags =
  if head = [] then Error "boolean query: use Yannakakis.boolean"
  else
    match evaluate_bags ?cancel ~head bags with
    | Error e -> Error e
    | Ok root_bag ->
      let missing =
        List.filter (fun v -> not (List.mem v (Bag.vars root_bag))) head
      in
      if missing <> [] then
        Error ("internal: head variables lost: " ^ String.concat ", " missing)
      else begin
        let final = Bag.project root_bag ~keep:head in
        let k = List.length head in
        let dims =
          Array.make k
            (List.fold_left
               (fun acc row -> Array.fold_left (fun m v -> max m (v + 1)) acc row)
               1 (Bag.rows final))
        in
        let b = Tuples.create_builder ~arity:k ~dims in
        List.iter (fun row -> Tuples.add b row) (Bag.rows final);
        Ok (Tuples.build b)
      end

let boolean_bags ?cancel bags =
  match evaluate_bags ?cancel ~head:[] bags with
  | Error e -> Error e
  | Ok root_bag -> Ok (Bag.cardinality root_bag > 0)

let run catalog q =
  match load_bags catalog q with
  | Error e -> Error e
  | Ok bags -> run_bags ~head:q.Cq.head bags

let boolean catalog q =
  match load_bags catalog q with
  | Error e -> Error e
  | Ok bags -> boolean_bags bags
