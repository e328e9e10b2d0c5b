open Rdf
module Budget = Resource.Budget
module Encoded_hom = Encoded.Encoded_hom

type maximality = [ `Hom | `Pebble of int ]

(* Every partial homomorphism is a flat int array over the tree's shared
   variable table ({!Plan_cache.node_source}): the parent's solution
   array IS the child join's [pre] (no map union, no re-encoding), and
   terms only reappear at the solution boundary where the maximality
   test needs a mapping. *)
let solutions_tree ~budget ~maximality ~kernel ~cache tree graph =
  Budget.with_phase budget "enumerate" @@ fun () ->
  let results = ref Sparql.Mapping.Set.empty in
  let vars = Plan_cache.variables cache graph tree in
  (* When the kernel is this graph's cache, the maximality test runs
     entirely on dictionary ids ({!Pebble_cache.stage_child_test_ids})
     and only maximal candidates are ever decoded — the solution
     boundary. Any other kernel (a foreign cache, or the term game)
     needs a term mapping, so those candidates decode first. *)
  let id_kernel =
    match maximality, kernel with
    | `Pebble k, Pebble_eval.Cached c
      when Graph.epoch (Pebble_cache.graph c) = Graph.epoch graph ->
        Some (k, c)
    | _ -> None
  in
  let child_extends subtree mu n =
    match maximality with
    | `Hom -> Wdpt.Semantics.child_extends ~budget tree graph mu n
    | `Pebble k ->
        Pebble_eval.child_test ~budget ~kernel ~k tree graph mu subtree n
  in
  let maximal subtree mu =
    not (List.exists (child_extends subtree mu) (Wdpt.Subtree.children subtree))
  in
  let source_of n = Plan_cache.node_source cache graph tree n in
  let decision_of n = Plan_cache.node_decision ~budget cache graph tree n in
  let strategy_of n =
    Encoded_hom.Adaptive (decision_of n).Optimizer.Join_order.order
  in
  (* The optimizer's pebble-vs-naive verdict: when a child's estimated
     extension count is tiny, an exact backtracking existence check on
     ids beats staging the pebble game. Both tests are exact here (the
     engine always plans k >= dw), so this is a cost choice only. *)
  let choose_naive n =
    (decision_of n).Optimizer.Join_order.maximality = `Naive
  in
  let naive_test_ids ~budget n =
    Plan_cache.naive_child_test ~budget ~strategy:(strategy_of n) cache graph
      tree n
  in
  let root_source = source_of Wdpt.Pattern_tree.root in
  (* decoding any node's source decodes the whole shared array *)
  let decode h = Encoded_hom.decode root_source h in
  let add_solution mu =
    if not (Sparql.Mapping.Set.mem mu !results) then Budget.solution budget;
    results := Sparql.Mapping.Set.add mu !results
  in
  (* Stage the id-level child tests once per candidate batch: the
     (subtree, child) games and slot tables are fixed across the whole
     batch, so only the per-assignment work stays in the loop. *)
  let visit subtree =
    match id_kernel with
    | Some (k, c) ->
        let tests =
          List.map
            (fun n ->
              if choose_naive n then naive_test_ids ~budget n
              else
                Pebble_cache.stage_child_test_ids c ~budget ~k tree ~vars
                  subtree n)
            (Wdpt.Subtree.children subtree)
        in
        fun h ->
          if not (List.exists (fun test -> test h) tests) then
            Option.iter add_solution (Sparql.Mapping.of_assignment (decode h))
    | None -> (
        fun h ->
          match Sparql.Mapping.of_assignment (decode h) with
          | None -> ()
          | Some mu -> if maximal subtree mu then add_solution mu)
  in
  let rec go subtree homs last =
    List.iter (visit subtree) homs;
    List.iter
      (fun n ->
        if n > last then begin
          Budget.tick budget;
          let child_source = source_of n in
          let strategy = strategy_of n in
          let homs' =
            List.concat_map
              (fun h ->
                Encoded_hom.fold ~budget ~strategy ~pre:h child_source
                  ~init:[]
                  ~f:(fun acc extension ->
                    (Array.copy extension :: acc, `Continue)))
              homs
          in
          if homs' <> [] then go (Wdpt.Subtree.add_child subtree n) homs' n
        end)
      (Wdpt.Subtree.children subtree)
  in
  let root_homs =
    Encoded_hom.fold ~budget
      ~strategy:(strategy_of Wdpt.Pattern_tree.root)
      root_source ~init:[]
      ~f:(fun acc h -> (Array.copy h :: acc, `Continue))
  in
  if root_homs <> [] then
    go (Wdpt.Subtree.root_only tree) root_homs Wdpt.Pattern_tree.root;
  !results

let solutions ?(budget = Budget.unlimited) ?(maximality = `Hom) ?kernel ?cache
    forest graph =
  (* One plan cache (and hence one pebble cache) across the whole forest:
     trees share the graph and often the same child patterns, so games
     and verdicts carry over. *)
  let cache = match cache with Some c -> c | None -> Plan_cache.create () in
  (* The kernel defaults to the cache's pebble cache under [`Pebble] (so
     the id-level fast path kicks in) and to the term game otherwise. *)
  let kernel =
    match maximality, kernel with
    | _, Some kernel -> kernel
    | `Pebble _, None -> Pebble_eval.Cached (Plan_cache.pebble cache graph)
    | `Hom, None -> Pebble_eval.Term
  in
  List.fold_left
    (fun acc tree ->
      Sparql.Mapping.Set.union acc
        (solutions_tree ~budget ~maximality ~kernel ~cache tree graph))
    Sparql.Mapping.Set.empty forest

let count ?budget ?maximality ?kernel ?cache forest graph =
  Sparql.Mapping.Set.cardinal
    (solutions ?budget ?maximality ?kernel ?cache forest graph)
