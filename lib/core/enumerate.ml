open Rdf
open Tgraphs
module Budget = Resource.Budget
module Encoded_hom = Encoded.Encoded_hom

type maximality = [ `Hom | `Pebble of int ]
type join = [ `Encoded | `Term ]

type optimize = [ `Off | `On ]

(* ------------------------------------------------------------------ *)
(* Term-level join (the PR 2 baseline, kept for ablation A7)           *)
(* ------------------------------------------------------------------ *)

let solutions_tree_term ~budget ~maximality ~kernel tree graph =
  Budget.with_phase budget "enumerate" @@ fun () ->
  let target = Graph.to_index graph in
  let results = ref Sparql.Mapping.Set.empty in
  let child_extends subtree mu n =
    match maximality with
    | `Hom -> Wdpt.Semantics.child_extends ~budget tree graph mu n
    | `Pebble k ->
        Pebble_eval.child_test ~budget ~kernel ~k tree graph mu subtree n
  in
  let maximal subtree mu =
    not (List.exists (child_extends subtree mu) (Wdpt.Subtree.children subtree))
  in
  (* homs: assignments with domain vars(subtree); last: the node id added
     most recently — children are only added in increasing id order so each
     subtree is reached exactly once, via its sorted member sequence. *)
  let rec go subtree homs last =
    List.iter
      (fun h ->
        match Sparql.Mapping.of_assignment h with
        | None -> ()
        | Some mu ->
            if maximal subtree mu then begin
              if not (Sparql.Mapping.Set.mem mu !results) then
                Budget.solution budget;
              results := Sparql.Mapping.Set.add mu !results
            end)
      homs;
    List.iter
      (fun n ->
        if n > last then begin
          Budget.tick budget;
          let child_pat = Wdpt.Pattern_tree.pat tree n in
          let homs' =
            List.concat_map
              (fun h ->
                List.map
                  (fun extension ->
                    Variable.Map.union (fun _ a _ -> Some a) h extension)
                  (Homomorphism.all ~budget ~pre:h ~source:child_pat ~target ()))
              homs
          in
          if homs' <> [] then go (Wdpt.Subtree.add_child subtree n) homs' n
        end)
      (Wdpt.Subtree.children subtree)
  in
  let root_subtree = Wdpt.Subtree.root_only tree in
  let root_homs =
    Homomorphism.all ~budget ~source:(Wdpt.Subtree.pat root_subtree) ~target ()
  in
  if root_homs <> [] then go root_subtree root_homs Wdpt.Pattern_tree.root;
  !results

(* ------------------------------------------------------------------ *)
(* Encoded join (default)                                              *)
(* ------------------------------------------------------------------ *)

(* Same lattice walk, but every partial homomorphism is a flat int array
   over the tree's shared variable table ({!Plan_cache.node_source}):
   the parent's solution array IS the child join's [pre] (no map union,
   no re-encoding), and terms only reappear at the solution boundary
   where the maximality test needs a mapping. *)
let solutions_tree_encoded ~budget ~maximality ~kernel ~cache ~optimize tree
    graph =
  Budget.with_phase budget "enumerate" @@ fun () ->
  let results = ref Sparql.Mapping.Set.empty in
  let vars = Plan_cache.variables cache graph tree in
  (* When the kernel is this graph's cache, the maximality test runs
     entirely on dictionary ids ({!Pebble_cache.child_test_ids}) and
     only maximal candidates are ever decoded — the solution boundary.
     Any other kernel (a foreign cache, or the term game) needs a term
     mapping, so those candidates decode first. *)
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
    match optimize with
    | `Off -> Encoded_hom.Rescore
    | `On -> Encoded_hom.Adaptive (decision_of n).Optimizer.Join_order.order
  in
  (* The optimizer's pebble-vs-naive verdict: when a child's estimated
     extension count is tiny, an exact backtracking existence check on
     ids beats staging the pebble game. Both tests are exact here (the
     engine always plans k >= dw), so this is a cost choice only. *)
  let choose_naive n =
    optimize = `On && (decision_of n).Optimizer.Join_order.maximality = `Naive
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

(* Resolve the shared defaults once: the kernel defaults to the cache's
   pebble cache under [`Pebble] (so the id-level fast path kicks in) and
   to the term game otherwise. *)
let defaults ~maximality ~kernel ~cache graph =
  match maximality, kernel with
  | `Pebble _, None -> Pebble_eval.Cached (Plan_cache.pebble cache graph)
  | _, Some kernel -> kernel
  | `Hom, None -> Pebble_eval.Term

let solutions_tree_with ~budget ~maximality ~kernel ~join ~cache ~optimize
    tree graph =
  match join with
  | `Term -> solutions_tree_term ~budget ~maximality ~kernel tree graph
  | `Encoded ->
      solutions_tree_encoded ~budget ~maximality ~kernel ~cache ~optimize tree
        graph

let solutions_tree ?(budget = Budget.unlimited) ?(maximality = `Hom) ?kernel
    ?(join = `Encoded) ?cache ?(optimize = `Off) tree graph =
  let cache =
    match cache with Some c -> c | None -> Plan_cache.create ()
  in
  let kernel = defaults ~maximality ~kernel ~cache graph in
  solutions_tree_with ~budget ~maximality ~kernel ~join ~cache ~optimize tree
    graph

let solutions ?(budget = Budget.unlimited) ?(maximality = `Hom) ?kernel
    ?(join = `Encoded) ?cache ?(optimize = `Off) forest graph =
  (* One plan cache (and hence one pebble cache) across the whole forest:
     trees share the graph and often the same child patterns, so games
     and verdicts carry over. *)
  let cache = match cache with Some c -> c | None -> Plan_cache.create () in
  let kernel = defaults ~maximality ~kernel ~cache graph in
  List.fold_left
    (fun acc tree ->
      Sparql.Mapping.Set.union acc
        (solutions_tree_with ~budget ~maximality ~kernel ~join ~cache
           ~optimize tree graph))
    Sparql.Mapping.Set.empty forest

let count ?budget ?maximality ?kernel ?join ?cache ?optimize forest graph =
  Sparql.Mapping.Set.cardinal
    (solutions ?budget ?maximality ?kernel ?join ?cache ?optimize forest graph)
