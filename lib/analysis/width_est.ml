open Tgraphs

type node_est = { node : Wdpt.Pattern_tree.node; ctw_upper : int }

type tree_est = {
  tree_index : int;
  node_ests : node_est list;
  bw_upper : int;
}

type t = {
  trees : tree_est list;
  dw_upper : int;
  dw_exact : int option;
}

let estimate_tree tree_index tree =
  let node_ests =
    List.filter_map
      (fun n ->
        if n = Wdpt.Pattern_tree.root then None
        else
          Some
            {
              node = n;
              ctw_upper =
                Gtgraph.tw_upper (Wd_core.Branch_treewidth.branch_gtgraph tree n);
            })
      (Wdpt.Pattern_tree.nodes tree)
  in
  let bw_upper =
    List.fold_left (fun acc e -> max acc e.ctw_upper) 1 node_ests
  in
  { tree_index; node_ests; bw_upper }

let estimate ?(budget = Resource.Budget.unlimited) ?(try_exact = true) forest =
  let trees = List.mapi estimate_tree forest in
  let dw_upper = List.fold_left (fun acc t -> max acc t.bw_upper) 1 trees in
  let dw_exact =
    if try_exact then
      Wdsparql_error.attempt (fun () ->
          Wd_core.Domination_width.of_forest ~budget forest)
    else None
  in
  { trees; dw_upper; dw_exact }

let hints t =
  { Wd_core.Engine.dw_exact = t.dw_exact; dw_upper = Some t.dw_upper }

let to_json t =
  Json.Obj
    [
      ( "dw_exact",
        match t.dw_exact with Some k -> Json.Int k | None -> Json.Null );
      ("dw_upper", Json.Int t.dw_upper);
      ( "trees",
        Json.List
          (List.map
             (fun tree ->
               Json.Obj
                 [
                   ("tree", Json.Int tree.tree_index);
                   ("bw_upper", Json.Int tree.bw_upper);
                   ( "nodes",
                     Json.List
                       (List.map
                          (fun e ->
                            Json.Obj
                              [
                                ("node", Json.Int e.node);
                                ("ctw_upper", Json.Int e.ctw_upper);
                              ])
                          tree.node_ests) );
                 ])
             t.trees) );
    ]

let pp ppf t =
  (match t.dw_exact with
  | Some k -> Fmt.pf ppf "dw = %d (exact), static bound dw <= %d" k t.dw_upper
  | None -> Fmt.pf ppf "dw <= %d (static bound; exact not computed)" t.dw_upper);
  List.iter
    (fun tree ->
      Fmt.pf ppf "@.tree %d: bw <= %d" tree.tree_index tree.bw_upper;
      List.iter
        (fun e -> Fmt.pf ppf "@.  node %d: ctw <= %d" e.node e.ctw_upper)
        tree.node_ests)
    t.trees
