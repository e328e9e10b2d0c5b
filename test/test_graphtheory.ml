open Graphtheory

let check = Alcotest.check

let qcheck ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

(* ------------------------------------------------------------------ *)
(* Ugraph                                                              *)
(* ------------------------------------------------------------------ *)

let test_ugraph_basics () =
  let g = Ugraph.make ~n:4 ~edges:[ (0, 1); (1, 2); (1, 2); (3, 3) ] in
  check Alcotest.int "n" 4 (Ugraph.n g);
  check Alcotest.int "duplicate and loop dropped" 2 (Ugraph.m g);
  check Alcotest.bool "edge" true (Ugraph.mem_edge g 0 1);
  check Alcotest.bool "symmetric" true (Ugraph.mem_edge g 1 0);
  check Alcotest.bool "no loop" false (Ugraph.mem_edge g 3 3);
  check Alcotest.int "degree" 2 (Ugraph.degree g 1);
  Alcotest.check_raises "range check"
    (Invalid_argument "Ugraph.make: endpoint out of range") (fun () ->
      ignore (Ugraph.make ~n:2 ~edges:[ (0, 5) ]))

let test_ugraph_ops () =
  let g = Ugraph.path_graph 5 in
  let g2 = Ugraph.add_edge g 0 4 in
  check Alcotest.int "edge added" 5 (Ugraph.m g2);
  check Alcotest.int "original untouched" 4 (Ugraph.m g);
  let g3 = Ugraph.remove_vertex g2 2 in
  check Alcotest.int "incident edges removed" 3 (Ugraph.m g3);
  let sub, mapping = Ugraph.induced g [ 1; 2; 3 ] in
  check Alcotest.int "induced size" 3 (Ugraph.n sub);
  check Alcotest.int "induced edges" 2 (Ugraph.m sub);
  check Alcotest.(array int) "mapping" [| 1; 2; 3 |] mapping

let test_ugraph_families () =
  check Alcotest.int "K5 edges" 10 (Ugraph.m (Ugraph.complete 5));
  check Alcotest.int "C6 edges" 6 (Ugraph.m (Ugraph.cycle_graph 6));
  check Alcotest.int "grid edges" 12 (Ugraph.m (Ugraph.grid_graph ~rows:3 ~cols:3));
  check Alcotest.bool "path connected" true (Ugraph.is_connected (Ugraph.path_graph 7));
  check Alcotest.bool "two components" false
    (Ugraph.is_connected (Ugraph.make ~n:4 ~edges:[ (0, 1); (2, 3) ]))

(* ------------------------------------------------------------------ *)
(* Components                                                          *)
(* ------------------------------------------------------------------ *)

let test_components () =
  let g = Ugraph.make ~n:7 ~edges:[ (0, 1); (1, 2); (3, 4) ] in
  check
    Alcotest.(list (list int))
    "components" [ [ 0; 1; 2 ]; [ 3; 4 ]; [ 5 ]; [ 6 ] ]
    (Components.components g);
  check Alcotest.(list int) "component_of" [ 3; 4 ] (Components.component_of g 4)

(* ------------------------------------------------------------------ *)
(* Treewidth                                                           *)
(* ------------------------------------------------------------------ *)

let petersen =
  (* outer C5 0-4, inner pentagram 5-9, spokes *)
  Ugraph.make ~n:10
    ~edges:
      [
        (0, 1); (1, 2); (2, 3); (3, 4); (4, 0);
        (5, 7); (7, 9); (9, 6); (6, 8); (8, 5);
        (0, 5); (1, 6); (2, 7); (3, 8); (4, 9);
      ]

let test_treewidth_known () =
  check Alcotest.int "empty" (-1) (Treewidth.treewidth (Ugraph.make ~n:0 ~edges:[]));
  check Alcotest.int "edgeless" 0 (Treewidth.treewidth (Ugraph.make ~n:3 ~edges:[]));
  check Alcotest.int "single edge" 1 (Treewidth.treewidth (Ugraph.path_graph 2));
  check Alcotest.int "path" 1 (Treewidth.treewidth (Ugraph.path_graph 8));
  check Alcotest.int "cycle" 2 (Treewidth.treewidth (Ugraph.cycle_graph 8));
  check Alcotest.int "K4" 3 (Treewidth.treewidth (Ugraph.complete 4));
  check Alcotest.int "K7" 6 (Treewidth.treewidth (Ugraph.complete 7));
  check Alcotest.int "3x3 grid" 3 (Treewidth.treewidth (Ugraph.grid_graph ~rows:3 ~cols:3));
  check Alcotest.int "2x5 grid" 2 (Treewidth.treewidth (Ugraph.grid_graph ~rows:2 ~cols:5));
  check Alcotest.int "4x4 grid" 4 (Treewidth.treewidth (Ugraph.grid_graph ~rows:4 ~cols:4));
  check Alcotest.int "Petersen" 4 (Treewidth.treewidth petersen);
  let tree = Ugraph.make ~n:7 ~edges:[ (0, 1); (0, 2); (1, 3); (1, 4); (2, 5); (2, 6) ] in
  check Alcotest.int "tree" 1 (Treewidth.treewidth tree)

let test_treewidth_disconnected () =
  (* treewidth of a disjoint union is the max over components *)
  let g =
    Ugraph.make ~n:8
      ~edges:[ (0, 1); (1, 2); (2, 0); (3, 4); (5, 6); (6, 7); (5, 7) ]
  in
  check Alcotest.int "disjoint union" 2 (Treewidth.treewidth g)

let test_exact_limit () =
  check Alcotest.(option int) "exceeds limit" None
    (Treewidth.exact ~limit:5 (Ugraph.complete 6));
  check Alcotest.(option int) "within limit" (Some 5)
    (Treewidth.exact ~limit:6 (Ugraph.complete 6))

let test_is_at_most () =
  let grid = Ugraph.grid_graph ~rows:3 ~cols:4 in
  check Alcotest.bool "tw(grid3x4) <= 3" true (Treewidth.is_at_most grid 3);
  check Alcotest.bool "tw(grid3x4) > 2" false (Treewidth.is_at_most grid 2);
  check Alcotest.bool "trivial bound" true (Treewidth.is_at_most (Ugraph.complete 5) 4)

let bounds_law =
  qcheck ~count:60 "lower <= exact <= heuristic upper" Testutil.small_ugraph
    (fun g ->
      let exact = Treewidth.treewidth g in
      Treewidth.lower_bound g <= exact && exact <= Treewidth.upper_bound g)

let decomposition_law =
  qcheck ~count:60 "decomposition verifies and attains >= exact width"
    Testutil.small_ugraph (fun g ->
      let d = Treewidth.decomposition g in
      match Tree_decomposition.verify g d with
      | Ok () -> Tree_decomposition.width d >= Treewidth.treewidth g
      | Error _ -> false)

(* The decomposition must attain the treewidth, not only bound it, also
   at sizes where a min-fill order can be wider. *)
let optimal_decomposition_law =
  qcheck ~count:100 "decomposition width = treewidth (n = 10-16)"
    (Testutil.sized_ugraph ~lo:10 ~hi:16) (fun g ->
      let d = Treewidth.decomposition g in
      Tree_decomposition.verify g d = Ok ()
      && Tree_decomposition.width d = Treewidth.treewidth g)

let minfill_decomposition_law =
  qcheck ~count:60 "min-fill ordering induces a valid decomposition"
    Testutil.small_ugraph (fun g ->
      let order, width = Treewidth.min_fill_order g in
      let d = Tree_decomposition.of_elimination_order g order in
      Tree_decomposition.verify g d = Ok () && Tree_decomposition.width d = width)

(* ------------------------------------------------------------------ *)
(* Tree decompositions                                                 *)
(* ------------------------------------------------------------------ *)

let iset = Ugraph.ISet.of_list

let test_decomposition_verify_catches () =
  let g = Ugraph.cycle_graph 4 in
  let good =
    Tree_decomposition.make
      ~bags:[| iset [ 0; 1; 2 ]; iset [ 0; 2; 3 ] |]
      ~tree_edges:[ (0, 1) ]
  in
  check Alcotest.bool "valid" true (Tree_decomposition.verify g good = Ok ());
  check Alcotest.int "width" 2 (Tree_decomposition.width good);
  let missing =
    Tree_decomposition.make
      ~bags:[| iset [ 0; 1 ]; iset [ 2; 3 ] |]
      ~tree_edges:[ (0, 1) ]
  in
  check Alcotest.bool "uncovered edge" false
    (Tree_decomposition.verify g missing = Ok ());
  let disconnected =
    Tree_decomposition.make
      ~bags:[| iset [ 0; 1; 2 ]; iset [ 1; 2; 3 ]; iset [ 0; 2; 3 ] |]
      ~tree_edges:[ (0, 1); (1, 2) ]
  in
  check Alcotest.bool "disconnected occurrence" false
    (Tree_decomposition.verify g disconnected = Ok ());
  let cyclic =
    Tree_decomposition.make
      ~bags:[| iset [ 0; 1; 2 ]; iset [ 0; 2; 3 ]; iset [ 0; 2 ] |]
      ~tree_edges:[ (0, 1); (1, 2); (2, 0) ]
  in
  check Alcotest.bool "cycle rejected" false
    (Tree_decomposition.verify g cyclic = Ok ())

(* ------------------------------------------------------------------ *)
(* Grid / Minor                                                        *)
(* ------------------------------------------------------------------ *)

let test_grid_helpers () =
  check Alcotest.int "id" 7 (Grid.id ~cols:3 2 1);
  check Alcotest.(pair int int) "coords" (2, 1) (Grid.coords ~cols:3 7);
  check Alcotest.int "grid tw" 4 (Grid.treewidth 4);
  check Alcotest.int "1x1 tw" 0 (Grid.treewidth 1)

let test_minor_identity () =
  let g = Ugraph.grid_graph ~rows:3 ~cols:3 in
  let id = Minor.identity g in
  check Alcotest.bool "identity verifies" true (Minor.verify ~minor:g ~host:g id = Ok ());
  check Alcotest.bool "identity onto" true (Minor.is_onto ~host:g id)

let test_minor_find_easy () =
  (match Minor.find ~minor:(Ugraph.complete 3) ~host:(Ugraph.complete 4) with
  | Some m ->
      check Alcotest.bool "K3 in K4 verified" true
        (Minor.verify ~minor:(Ugraph.complete 3) ~host:(Ugraph.complete 4) m = Ok ())
  | None -> Alcotest.fail "K3 minor of K4 not found");
  let minor = Ugraph.grid_graph ~rows:2 ~cols:2 in
  let host = Ugraph.grid_graph ~rows:3 ~cols:3 in
  (match Minor.find ~minor ~host with
  | Some m ->
      check Alcotest.bool "2x2 in 3x3 verified" true
        (Minor.verify ~minor ~host m = Ok ())
  | None -> Alcotest.fail "2x2 grid minor of 3x3 grid not found");
  let g = Ugraph.grid_graph ~rows:3 ~cols:3 in
  match Minor.find ~minor:g ~host:g with
  | Some m ->
      check Alcotest.bool "self minor verified" true
        (Minor.verify ~minor:g ~host:g m = Ok ())
  | None -> Alcotest.fail "grid minor of itself not found"

let test_minor_extend_onto () =
  let host = Ugraph.path_graph 5 in
  let minor = Ugraph.path_graph 2 in
  let partial = [| Ugraph.ISet.singleton 1; Ugraph.ISet.singleton 2 |] in
  check Alcotest.bool "partial valid" true (Minor.verify ~minor ~host partial = Ok ());
  match Minor.extend_onto ~host partial with
  | None -> Alcotest.fail "extension failed"
  | Some extended ->
      check Alcotest.bool "extended valid" true
        (Minor.verify ~minor ~host extended = Ok ());
      check Alcotest.bool "extended onto" true (Minor.is_onto ~host extended)

let test_minor_K3_in_triangle_free () =
  (* C5 contains no K3 subgraph but K3 IS a minor (contract two edges). *)
  let host = Ugraph.cycle_graph 5 in
  let minor = Ugraph.complete 3 in
  match Minor.find ~minor ~host with
  | Some m ->
      check Alcotest.bool "verified" true (Minor.verify ~minor ~host m = Ok ())
  | None -> Alcotest.fail "K3 minor of C5 not found"

let minor_found_maps_verify =
  qcheck ~count:40 "found minor maps always verify"
    QCheck.(pair Testutil.small_ugraph (QCheck.make QCheck.Gen.(int_bound 1000)))
    (fun (host, seed) ->
      let minor = Testutil.ugraph_of_seed ~n:3 ~edge_prob:0.6 seed in
      match Minor.find ~minor ~host with
      | Some m -> Minor.verify ~minor ~host m = Ok ()
      | None -> true)

let () =
  Alcotest.run "graphtheory"
    [
      ( "ugraph",
        [
          Alcotest.test_case "basics" `Quick test_ugraph_basics;
          Alcotest.test_case "ops" `Quick test_ugraph_ops;
          Alcotest.test_case "families" `Quick test_ugraph_families;
        ] );
      ("components", [ Alcotest.test_case "components" `Quick test_components ]);
      ( "treewidth",
        [
          Alcotest.test_case "known values" `Quick test_treewidth_known;
          Alcotest.test_case "disconnected" `Quick test_treewidth_disconnected;
          Alcotest.test_case "exact limit" `Quick test_exact_limit;
          Alcotest.test_case "is_at_most" `Quick test_is_at_most;
          bounds_law;
          decomposition_law;
          optimal_decomposition_law;
          minfill_decomposition_law;
        ] );
      ( "tree decomposition",
        [
          Alcotest.test_case "verify catches defects" `Quick
            test_decomposition_verify_catches;
        ] );
      ( "grid/minor",
        [
          Alcotest.test_case "grid helpers" `Quick test_grid_helpers;
          Alcotest.test_case "identity minor" `Quick test_minor_identity;
          Alcotest.test_case "find easy minors" `Quick test_minor_find_easy;
          Alcotest.test_case "extend onto" `Quick test_minor_extend_onto;
          Alcotest.test_case "K3 in C5" `Quick test_minor_K3_in_triangle_free;
          minor_found_maps_verify;
        ] );
    ]
