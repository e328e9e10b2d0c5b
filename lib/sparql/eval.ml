open Tgraphs
module Budget = Resource.Budget

let eval_triple ?budget t graph =
  let source = Tgraph.of_triples [ t ] in
  let enc = Encoded.Encoded_graph.of_graph_cached graph in
  Encoded.Encoded_hom.all ?budget (Encoded.Encoded_hom.compile source enc)
  |> List.filter_map Mapping.of_assignment
  |> Mapping.Set.of_list

let join budget left right =
  Mapping.Set.fold
    (fun m1 acc ->
      Mapping.Set.fold
        (fun m2 acc ->
          Budget.tick budget;
          if Mapping.compatible m1 m2 then
            Mapping.Set.add (Mapping.union m1 m2) acc
          else acc)
        right acc)
    left Mapping.Set.empty

let eval ?(budget = Budget.unlimited) p graph =
  Budget.with_phase budget "reference-eval" @@ fun () ->
  let rec go p =
    match p with
    | Algebra.Triple t -> eval_triple ~budget t graph
    | Algebra.And (a, b) -> join budget (go a) (go b)
    | Algebra.Opt (a, b) ->
        let left = go a and right = go b in
        let joined = join budget left right in
        let unmatched =
          Mapping.Set.filter
            (fun m1 ->
              Budget.tick budget;
              not (Mapping.Set.exists (fun m2 -> Mapping.compatible m1 m2) right))
            left
        in
        Mapping.Set.union joined unmatched
    | Algebra.Union (a, b) -> Mapping.Set.union (go a) (go b)
    | Algebra.Filter (q, condition) ->
        Mapping.Set.filter (fun mu -> Condition.satisfies mu condition) (go q)
    | Algebra.Select (vars, q) ->
        Mapping.Set.map (Mapping.restrict vars) (go q)
  in
  (* Only the final set is the answer: the solution cap counts it, never
     the intermediate sets the recursion materialises. *)
  let answers = go p in
  Mapping.Set.iter (fun _ -> Budget.solution budget) answers;
  answers

let check ?budget p graph mu = Mapping.Set.mem mu (eval ?budget p graph)
