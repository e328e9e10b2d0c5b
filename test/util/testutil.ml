(** Shared QCheck generators and Alcotest testables for the test suite.

    Generators are seed-driven: QCheck shrinks over the integer seed while
    the construction itself stays deterministic, which keeps failures
    reproducible by seed. *)

open Rdf

let seed_gen = QCheck.Gen.int_bound 1_000_000

(* ------------------------------------------------------------------ *)
(* Random ground graphs.                                               *)
(* ------------------------------------------------------------------ *)

let graph_of_seed ?(nodes = 6) ?(preds = 2) ?(triples = 12) seed =
  Generator.random_graph ~seed ~n:nodes
    ~predicates:(List.init preds (fun i -> Printf.sprintf "q%d" i))
    ~m:triples

let small_graph =
  QCheck.make
    ~print:(fun g -> Fmt.str "%a" Graph.pp g)
    QCheck.Gen.(map (graph_of_seed ~nodes:5 ~preds:2 ~triples:10) seed_gen)

(* ------------------------------------------------------------------ *)
(* Random t-graphs and generalised t-graphs.                           *)
(* ------------------------------------------------------------------ *)

let tgraph_of_seed ?(triples = 4) ?(vars = 4) ?(preds = 2) ?(consts = 2) seed =
  let state = Random.State.make [| seed; triples; vars; 77 |] in
  let term () =
    if Random.State.int state 10 < 7 then
      Term.var (Printf.sprintf "v%d" (Random.State.int state vars))
    else Term.iri (Printf.sprintf "c:%d" (Random.State.int state consts))
  in
  let pred () = Term.iri (Printf.sprintf "q%d" (Random.State.int state preds)) in
  Tgraphs.Tgraph.of_triples
    (List.init
       (1 + Random.State.int state triples)
       (fun _ -> Triple.make (term ()) (pred ()) (term ())))

let gtgraph_of_seed ?(triples = 4) ?(vars = 4) ?(preds = 2) seed =
  let s = tgraph_of_seed ~triples ~vars ~preds seed in
  let state = Random.State.make [| seed; 13 |] in
  let x =
    Variable.Set.filter
      (fun _ -> Random.State.int state 3 = 0)
      (Tgraphs.Tgraph.vars s)
  in
  Tgraphs.Gtgraph.make s x

let small_tgraph =
  QCheck.make
    ~print:(fun s -> Fmt.str "%a" Tgraphs.Tgraph.pp s)
    QCheck.Gen.(map tgraph_of_seed seed_gen)

let small_gtgraph =
  QCheck.make
    ~print:(fun g -> Fmt.str "%a" Tgraphs.Gtgraph.pp g)
    QCheck.Gen.(map gtgraph_of_seed seed_gen)

(* ------------------------------------------------------------------ *)
(* Random well-designed patterns.                                      *)
(* ------------------------------------------------------------------ *)

let wd_pattern_of_seed ?(triples = 6) ?(vars = 6) ?(union = 2) ?(depth = 2) seed =
  Workload.Query_families.random_wd_pattern ~seed ~triples ~vars ~preds:2
    ~depth ~union

let wd_pattern =
  QCheck.make
    ~print:Sparql.Printer.to_string
    QCheck.Gen.(map wd_pattern_of_seed seed_gen)

let union_free_wd_pattern =
  QCheck.make
    ~print:Sparql.Printer.to_string
    QCheck.Gen.(map (wd_pattern_of_seed ~union:1) seed_gen)

(* A random mapping over a subset of the pattern's variables into the
   graph's IRIs — candidate inputs for membership checks. *)
let mapping_for pattern graph seed =
  let state = Random.State.make [| seed; 271 |] in
  let iris = Iri.Set.elements (Graph.dom graph) in
  if iris = [] then Sparql.Mapping.empty
  else
    Variable.Set.fold
      (fun v acc ->
        if Random.State.int state 2 = 0 then
          Sparql.Mapping.add v
            (List.nth iris (Random.State.int state (List.length iris)))
            acc
        else acc)
      (Sparql.Algebra.vars pattern)
      Sparql.Mapping.empty

(* ------------------------------------------------------------------ *)
(* Random undirected graphs.                                           *)
(* ------------------------------------------------------------------ *)

let ugraph_of_seed ?(n = 8) ?(edge_prob = 0.4) seed =
  let state = Random.State.make [| seed; n; 53 |] in
  let edges = ref [] in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      if Random.State.float state 1.0 < edge_prob then edges := (i, j) :: !edges
    done
  done;
  Graphtheory.Ugraph.make ~n ~edges:!edges

let small_ugraph =
  QCheck.make
    ~print:(fun g -> Fmt.str "%a" Graphtheory.Ugraph.pp g)
    QCheck.Gen.(map ugraph_of_seed seed_gen)

(* Random graphs on [lo]..[hi] vertices. *)
let sized_ugraph ~lo ~hi =
  QCheck.make
    ~print:(fun g -> Fmt.str "%a" Graphtheory.Ugraph.pp g)
    QCheck.Gen.(
      map2 (fun n seed -> ugraph_of_seed ~n seed) (int_range lo hi) seed_gen)

(* ------------------------------------------------------------------ *)
(* Treewidth oracle: the O(2^n) dynamic programme of Bodlaender et al.
   f(S) = min over v in S of max (f(S \ {v}), q(S \ {v}, v)) where
   q(S, v) counts vertices outside S ∪ {v} reachable from v through S.
   f(V) is the treewidth. Sets are int bitmasks. Test-only: production
   treewidth is the branch and bound in [Graphtheory.Treewidth], an
   independent algorithm this one cross-checks.                        *)
(* ------------------------------------------------------------------ *)

module ISet = Graphtheory.Ugraph.ISet
module Budget = Resource.Budget

let adjacency_masks g =
  let n = Graphtheory.Ugraph.n g in
  Array.init n (fun v ->
      ISet.fold (fun u acc -> acc lor (1 lsl u)) (Graphtheory.Ugraph.adj g v) 0)

(* Reachable-through-S closure from v: expand adj within S to fixpoint. *)
let q_count adj full v s =
  let rec grow reached =
    let frontier = reached land s in
    let expanded =
      let acc = ref reached in
      let rest = ref frontier in
      while !rest <> 0 do
        let u = !rest land - !rest in
        let i =
          (* index of lowest set bit *)
          let rec bit k m = if m land 1 = 1 then k else bit (k + 1) (m lsr 1) in
          bit 0 u
        in
        acc := !acc lor adj.(i);
        rest := !rest land lnot u
      done;
      !acc
    in
    if expanded = reached then reached else grow expanded
  in
  let reached = grow adj.(v) in
  let outside = reached land lnot s land lnot (1 lsl v) land full in
  let rec popcount m = if m = 0 then 0 else 1 + popcount (m land (m - 1)) in
  popcount outside

let treewidth_dp ?(budget = Budget.unlimited) ?(limit = 20) g =
  let n = Graphtheory.Ugraph.n g in
  if n > limit then None
  else if n = 0 then Some (-1)
  else
    Budget.with_phase budget "treewidth" @@ fun () ->
    begin
    let adj = adjacency_masks g in
    let full = (1 lsl n) - 1 in
    let size = 1 lsl n in
    let f = Bytes.make size '\255' in
    (* f(∅) = -1 encoded as 255 → interpreted as -1 below. *)
    let get s =
      let b = Char.code (Bytes.get f s) in
      if b = 255 then -1 else b
    in
    let set s v = Bytes.set f s (Char.chr (if v < 0 then 255 else v)) in
    set 0 (-1);
    (* iterate subsets in increasing order: s-1 ⊂ relevant already done
       because removing a bit yields a smaller integer. *)
    for s = 1 to full do
      Budget.tick budget;
      let best = ref max_int in
      let rest = ref s in
      while !rest <> 0 do
        let bit = !rest land - !rest in
        let v =
          let rec idx k m = if m land 1 = 1 then k else idx (k + 1) (m lsr 1) in
          idx 0 bit
        in
        let s' = s land lnot bit in
        let candidate = max (get s') (q_count adj full v s') in
        if candidate < !best then best := candidate;
        rest := !rest land lnot bit
      done;
      set s !best
    done;
    Some (get full)
  end

(* ------------------------------------------------------------------ *)
(* Alcotest testables.                                                 *)
(* ------------------------------------------------------------------ *)

let mapping = Alcotest.testable Sparql.Mapping.pp Sparql.Mapping.equal

let mapping_set =
  Alcotest.testable
    (fun ppf s ->
      Fmt.pf ppf "{%a}"
        Fmt.(list ~sep:comma Sparql.Mapping.pp)
        (Sparql.Mapping.Set.elements s))
    Sparql.Mapping.Set.equal

let algebra = Alcotest.testable Sparql.Algebra.pp Sparql.Algebra.equal
let tgraph = Alcotest.testable Tgraphs.Tgraph.pp Tgraphs.Tgraph.equal
let graph = Alcotest.testable Graph.pp Graph.equal
let triple = Alcotest.testable Triple.pp Triple.equal
