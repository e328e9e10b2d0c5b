open Rdf

type triple_plan = {
  triple : Triple.t;
  estimated : float;
  actual : int;
}

type node_plan = {
  node : Wdpt.Pattern_tree.node;
  depth : int;
  new_vars : Variable.t list;
  triples : triple_plan list;
  decision : Optimizer.Join_order.decision;
}

type tree_plan = node_plan list

type t = {
  classification : Classify.t;
  plan : Engine.plan;
  trees : tree_plan list;
  graph_triples : int;
}

(* Exact matches of the pattern's constant positions against the encoded
   store — the ground truth the cost model's base estimate approximates.
   A constant the dictionary has never seen matches nothing. *)
let actual_count enc triple =
  let dict = Encoded.Encoded_graph.dictionary enc in
  let pos t =
    match t with
    | Term.Var _ -> Ok None
    | t -> (
        match Dictionary.find dict t with
        | Some id -> Ok (Some id)
        | None -> Error ())
  in
  match
    (pos triple.Triple.s, pos triple.Triple.p, pos triple.Triple.o)
  with
  | Ok s, Ok p, Ok o -> Encoded.Encoded_graph.match_count enc ?s ?p ?o ()
  | _ -> 0

let plan_tree ?budget stats (plan : Engine.plan) graph enc tree =
  let rec walk node depth =
    let parent_vars =
      match Wdpt.Pattern_tree.parent tree node with
      | None -> Variable.Set.empty
      | Some p -> Wdpt.Pattern_tree.vars_of_node tree p
    in
    let new_vars =
      Variable.Set.elements
        (Variable.Set.diff (Wdpt.Pattern_tree.vars_of_node tree node) parent_vars)
    in
    let base =
      Tgraphs.Tgraph.triples (Wdpt.Pattern_tree.pat tree node)
      |> List.map (fun triple ->
             {
               triple;
               estimated = Stats.estimated_matches stats triple;
               actual = actual_count enc triple;
             })
    in
    let decision =
      Plan_cache.node_decision ?budget plan.cache graph tree node
    in
    (* the optimizer's compiled order: position j is the j-th join step,
       aligned with [decision.est_cards.(j)] *)
    let triples =
      let arr = Array.of_list base in
      Array.to_list
        (Array.map (fun i -> arr.(i)) decision.Optimizer.Join_order.order)
    in
    { node; depth; new_vars; triples; decision }
    :: List.concat_map
         (fun c -> walk c (depth + 1))
         (Wdpt.Pattern_tree.children tree node)
  in
  walk Wdpt.Pattern_tree.root 0

let explain ?budget pattern graph =
  let stats = Stats.of_graph graph in
  let plan = Engine.plan ?budget pattern in
  let enc = Plan_cache.encoded plan.Engine.cache graph in
  {
    classification = Classify.classify ?budget pattern;
    plan;
    trees =
      List.map (plan_tree ?budget stats plan graph enc) plan.Engine.forest;
    graph_triples = Stats.triples stats;
  }

let pp ppf t =
  Fmt.pf ppf "%a@.@.%a@.@." Classify.pp t.classification Engine.pp_plan t.plan;
  Fmt.pf ppf "data: %d triples@." t.graph_triples;
  List.iteri
    (fun i tree_plan ->
      Fmt.pf ppf "@.tree %d:@." (i + 1);
      List.iter
        (fun np ->
          let indent = String.make (2 * np.depth) ' ' in
          let vars_note =
            match np.new_vars with
            | [] -> ""
            | vs ->
                Printf.sprintf " (introduces %s)"
                  (String.concat ", "
                     (List.map (fun v -> "?" ^ Variable.to_string v) vs))
          in
          let d = np.decision in
          let decision_note =
            Fmt.str " [join: cost-based order, ~%.1f candidate(s)%s]"
              d.Optimizer.Join_order.est_candidates
              (if np.depth = 0 then ""
               else
                 Fmt.str "; maximality test: %a"
                   Optimizer.Join_order.pp_maximality
                   d.Optimizer.Join_order.maximality)
          in
          Fmt.pf ppf "%s%snode %d%s%s@." indent
            (if np.depth = 0 then "" else "OPTIONAL ")
            np.node vars_note decision_note;
          List.iteri
            (fun j tp ->
              Fmt.pf ppf "%s  %a  est ~%.1f, actual %d@." indent Triple.pp
                tp.triple d.Optimizer.Join_order.est_cards.(j) tp.actual)
            np.triples)
        tree_plan)
    t.trees
