module ISet = Ugraph.ISet
module Budget = Resource.Budget

(* ------------------------------------------------------------------ *)
(* Elimination heuristics.                                             *)
(* ------------------------------------------------------------------ *)

let eliminate_with ?(budget = Budget.unlimited) choose g =
  let n = Ugraph.n g in
  let adjacency = Array.init n (fun v -> Ugraph.adj g v) in
  let alive = Array.make n true in
  let order = ref [] in
  let width = ref 0 in
  for _ = 1 to n do
    Budget.tick budget;
    let v = choose adjacency alive in
    order := v :: !order;
    width := max !width (ISet.cardinal adjacency.(v));
    let nbrs = adjacency.(v) in
    ISet.iter
      (fun a ->
        adjacency.(a) <- ISet.remove v adjacency.(a);
        ISet.iter
          (fun b -> if a <> b then adjacency.(a) <- ISet.add b adjacency.(a))
          nbrs)
      nbrs;
    adjacency.(v) <- ISet.empty;
    alive.(v) <- false
  done;
  (List.rev !order, !width)

let argmin_alive score adjacency alive =
  let best = ref (-1) and best_score = ref max_int in
  Array.iteri
    (fun v live ->
      if live then begin
        let s = score adjacency v in
        if s < !best_score then begin
          best := v;
          best_score := s
        end
      end)
    alive;
  !best

let min_degree_order ?budget g =
  eliminate_with ?budget
    (argmin_alive (fun adjacency v -> ISet.cardinal adjacency.(v)))
    g

let fill_in adjacency v =
  let nbrs = ISet.elements adjacency.(v) in
  let count = ref 0 in
  let rec pairs = function
    | [] -> ()
    | a :: rest ->
        List.iter (fun b -> if not (ISet.mem b adjacency.(a)) then incr count) rest;
        pairs rest
  in
  pairs nbrs;
  !count

let min_fill_order ?budget g = eliminate_with ?budget (argmin_alive fill_in) g

let lower_bound ?(budget = Budget.unlimited) g =
  (* Maximum-minimum-degree: repeatedly delete a minimum-degree vertex,
     recording the largest minimum degree seen. *)
  let n = Ugraph.n g in
  if n = 0 then -1
  else begin
    let adjacency = Array.init n (fun v -> Ugraph.adj g v) in
    let alive = Array.make n true in
    let best = ref 0 in
    for _ = 1 to n do
      Budget.tick budget;
      let v = argmin_alive (fun adjacency v -> ISet.cardinal adjacency.(v)) adjacency alive in
      best := max !best (ISet.cardinal adjacency.(v));
      ISet.iter (fun a -> adjacency.(a) <- ISet.remove v adjacency.(a)) adjacency.(v);
      adjacency.(v) <- ISet.empty;
      alive.(v) <- false
    done;
    !best
  end

(* The better of the two heuristic orders, and its width. *)
let heuristic_order ?budget g =
  let fill = min_fill_order ?budget g in
  let degree = min_degree_order ?budget g in
  if snd degree < snd fill then degree else fill

let upper_bound ?budget g = snd (heuristic_order ?budget g)

(* ------------------------------------------------------------------ *)
(* Exact treewidth: branch and bound over elimination orderings, after
   Gogate & Dechter's QuickBB. The heuristic order is the initial bound;
   a branch is cut as soon as its width reaches the best found, simplicial
   vertices are eliminated without branching (doing so first never hurts
   optimality), and each set of remaining vertices, as a bitmask, is
   memoised with the smallest width seen entering it. Returns the width
   and an elimination order attaining it.                                *)
(* ------------------------------------------------------------------ *)

let default_limit = 20

let branch_and_bound ?(budget = Budget.unlimited) ?(limit = default_limit) g =
  let n = Ugraph.n g in
  if n > limit then None
  else if n = 0 then Some (-1, [])
  else
    Budget.with_phase budget "treewidth" @@ fun () ->
    begin
    let order, width = heuristic_order ~budget g in
    let best = ref width and best_order = ref order in
    (* visited: remaining-set -> smallest width-so-far seen entering it *)
    let visited : (int, int) Hashtbl.t = Hashtbl.create 4096 in
    (* [eliminated] is the elimination prefix, most recent first *)
    let rec go adjacency remaining width eliminated =
      Budget.tick budget;
      if width >= !best then ()
      else if remaining = 0 then begin
        best := width;
        best_order := List.rev eliminated
      end
      else begin
        match Hashtbl.find_opt visited remaining with
        | Some w when w <= width -> ()
        | _ ->
            Hashtbl.replace visited remaining width;
            let simplicial =
              let found = ref (-1) in
              for v = 0 to n - 1 do
                if !found = -1 && remaining land (1 lsl v) <> 0 then begin
                  let nbrs = adjacency.(v) in
                  let is_clique =
                    ISet.for_all
                      (fun a ->
                        ISet.for_all
                          (fun b -> a = b || ISet.mem b adjacency.(a))
                          nbrs)
                      nbrs
                  in
                  if is_clique then found := v
                end
              done;
              !found
            in
            let eliminate v =
              let nbrs = adjacency.(v) in
              let width' = max width (ISet.cardinal nbrs) in
              if width' < !best then begin
                let adjacency' = Array.copy adjacency in
                ISet.iter
                  (fun a ->
                    adjacency'.(a) <- ISet.remove v adjacency'.(a);
                    ISet.iter
                      (fun b -> if a <> b then adjacency'.(a) <- ISet.add b adjacency'.(a))
                      nbrs)
                  nbrs;
                adjacency'.(v) <- ISet.empty;
                go adjacency' (remaining land lnot (1 lsl v)) width' (v :: eliminated)
              end
            in
            if simplicial >= 0 then eliminate simplicial
            else
              for v = 0 to n - 1 do
                if remaining land (1 lsl v) <> 0 then eliminate v
              done
      end
    in
    let adjacency = Array.init n (fun v -> Ugraph.adj g v) in
    go adjacency ((1 lsl n) - 1) 0 [];
    Some (!best, !best_order)
  end

let exact ?budget ?limit g = Option.map fst (branch_and_bound ?budget ?limit g)

let treewidth ?budget ?(exact_limit = default_limit) g =
  match exact ?budget ~limit:exact_limit g with
  | Some w -> w
  | None -> upper_bound ?budget g

let is_at_most ?budget g k =
  if k >= Ugraph.n g - 1 then true
  else if lower_bound ?budget g > k then false
  else if upper_bound ?budget g <= k then true
  else treewidth ?budget g <= k

let decomposition ?budget g =
  let order =
    match branch_and_bound ?budget g with
    | Some (_, order) -> order
    | None -> fst (heuristic_order ?budget g)
  in
  Tree_decomposition.of_elimination_order g order
