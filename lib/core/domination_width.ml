open Tgraphs
module Budget = Resource.Budget

(* Definition 2, decided lazily. A member whose polynomial treewidth bound
   is <= k has ctw <= tw <= bound <= k, and every member it maps into is
   dominated by it; neither case needs a core. Only the members that
   neither test settles pay for [Cores.ctw], at most once per family
   however many levels are tried, and every homomorphism test is memoised
   too. A member dominated by a cheap one never has to dominate in turn:
   whatever it maps into, the cheap member maps into as well. *)
type family = {
  members : Gtgraph.t array;
  upper : int array;
  ctws : int option array;
  maps : (int * int, bool) Hashtbl.t;
}

let family ?budget gtg =
  let members = Array.of_list gtg in
  {
    members;
    upper = Array.map (Gtgraph.tw_upper ?budget) members;
    ctws = Array.make (Array.length members) None;
    maps = Hashtbl.create 16;
  }

let ctw ?budget f i =
  match f.ctws.(i) with
  | Some c -> c
  | None ->
      let c = Cores.ctw ?budget f.members.(i) in
      f.ctws.(i) <- Some c;
      c

let maps_to ?budget f i j =
  match Hashtbl.find_opt f.maps (i, j) with
  | Some b -> b
  | None ->
      let b = Gtgraph.maps_to ?budget f.members.(i) f.members.(j) in
      Hashtbl.add f.maps (i, j) b;
      b

let dominated ?budget f k =
  let all = List.init (Array.length f.members) Fun.id in
  let cheap, rest = List.partition (fun i -> f.upper.(i) <= k) all in
  let unsettled =
    List.filter
      (fun j -> not (List.exists (fun i -> maps_to ?budget f i j) cheap))
      rest
  in
  let low, high = List.partition (fun j -> ctw ?budget f j <= k) unsettled in
  List.for_all
    (fun j -> List.exists (fun i -> maps_to ?budget f i j) low)
    high

let dominated_at ?budget gtg k = dominated ?budget (family ?budget gtg) k

(* k-domination is monotone in k and holds once every member is cheap, so
   the first k that passes is the least. It changes only where k crosses a
   member's ctw, so this is Definition 2's least k in {1} ∪ ctws whenever
   each ctw is exact, and an upper bound on dw otherwise. *)
let domination_level ?budget gtg =
  let f = family ?budget gtg in
  let top = Array.fold_left max 1 f.upper in
  let rec first k =
    if k >= top || dominated ?budget f k then k else first (k + 1)
  in
  first 1

let of_subtree ?budget forest subtree =
  domination_level ?budget (Wdpt.Children_assignment.gtg forest subtree)

let subtrees_of ?budget forest =
  List.concat
    (List.mapi
       (fun i tree ->
         List.map (fun st -> (i, st)) (Wdpt.Subtree.all ?budget tree))
       forest)

let of_forest ?(budget = Budget.unlimited) forest =
  Budget.with_phase budget "domination-width" @@ fun () ->
  List.fold_left
    (fun acc (_, st) ->
      Budget.tick budget;
      max acc (of_subtree ~budget forest st))
    1
    (subtrees_of ~budget forest)

let at_most ?(budget = Budget.unlimited) forest k =
  Budget.with_phase budget "domination-width" @@ fun () ->
  List.for_all
    (fun (_, st) ->
      Budget.tick budget;
      dominated_at ~budget (Wdpt.Children_assignment.gtg forest st) k)
    (subtrees_of ~budget forest)

let of_pattern ?budget p = of_forest ?budget (Wdpt.Pattern_forest.of_algebra p)

(* Conservative fallback when the exact computation is too expensive:
   dw(F) ≤ max ctw over GtG members ≤ max tw over members, and every
   member's pattern is a subgraph of its tree's full pattern, so the
   heuristic treewidth bound of each tree's full pattern with no variable
   distinguished (members count only their existential variables, which
   can only shrink it) bounds them all. Polynomial: two elimination
   heuristics per tree. *)
let cheap_upper_bound forest =
  List.fold_left
    (fun acc tree ->
      let pat = Wdpt.Subtree.pat (Wdpt.Subtree.full tree) in
      max acc (Gtgraph.tw_upper (Gtgraph.make pat Rdf.Variable.Set.empty)))
    1 forest

type profile = {
  subtree_members : int list;
  tree_index : int;
  gtg_ctws : int list;
  level : int;
}

let profile ?budget forest =
  List.map
    (fun (i, st) ->
      let gtg = Wdpt.Children_assignment.gtg forest st in
      {
        subtree_members = Wdpt.Subtree.members st;
        tree_index = i;
        gtg_ctws = List.map (Cores.ctw ?budget) gtg;
        level = domination_level ?budget gtg;
      })
    (subtrees_of ?budget forest)
