(* PR 7: the cost-based planner (lib/optimizer) and its integration.

   The contract under test:
   - the optimizer never changes answers: 300 random (query, store)
     instances and five Zipf-skewed join workloads agree with the
     reference algebra evaluator, and the skewed workloads route child
     maximality tests through both the naive and the pebble branch;
   - compiled orders are permutations of the node's patterns, estimates
     are nonnegative and finite, and the cost model is monotone under
     binding (more bound variables can only shrink an estimate);
   - the zero-pattern guard in Encoded_hom.fold: a node with no triple
     patterns yields exactly one homomorphism (the prefix itself) under
     every strategy;
   - --explain surfaces the decisions: compiled order, estimates next
     to actuals, and the pebble-vs-naive maximality verdict. *)

open Rdf
module Engine = Wd_core.Engine
module Enumerate = Wd_core.Enumerate
module Explain = Wd_core.Explain
module Join_order = Optimizer.Join_order
module Cost_model = Optimizer.Cost_model
module Encoded_graph = Encoded.Encoded_graph
module Encoded_hom = Encoded.Encoded_hom

let check = Alcotest.check

(* ------------------------------------------------------------------ *)
(* Differential fuzz: the optimizer is invisible in the answers        *)
(* ------------------------------------------------------------------ *)

let test_equivalence_300 () =
  for s = 1 to 300 do
    let pattern =
      Workload.Query_families.random_wd_pattern ~seed:s ~triples:6 ~vars:6
        ~preds:2 ~depth:3 ~union:2
    in
    let graph =
      Rdf.Generator.random_graph ~seed:(s * 7 + 1) ~n:6
        ~predicates:[ "q0"; "q1" ] ~m:18
    in
    let forest = Wdpt.Pattern_forest.of_algebra pattern in
    let dw = Wd_core.Domination_width.of_forest forest in
    let reference = Sparql.Eval.eval pattern graph in
    let got = Enumerate.solutions ~maximality:(`Pebble dw) forest graph in
    if not (Sparql.Mapping.Set.equal got reference) then
      Alcotest.failf "seed %d diverges from the reference evaluator\nquery: %s"
        s
        (Sparql.Printer.to_string pattern)
  done

(* Joins where planning matters, over Zipf-skewed stores (node 0 is the
   heaviest hub and predicate cardinalities fall off steeply, so
   uniform-guess join orders are maximally wrong): multi-triple roots
   over predicates of very different cardinality, with selective
   OPTIONAL children the optimizer tests naively. The last workload's
   child carries an unanchored pattern over the most frequent
   predicate, which puts its estimated extension count past the naive
   limit, so that child runs the pebble test. *)
let skewed_workloads =
  let preds = [ "q0"; "q1"; "q2"; "q3"; "q4"; "q5" ] in
  let zg seed n m e =
    Rdf.Generator.zipf ~seed ~n ~predicates:preds ~m ~exponent:e ()
  in
  [
    ( "star2-two-optionals",
      "{ ?a p:q1 ?b . ?a p:q2 ?c . OPTIONAL { ?b p:q5 ?d } OPTIONAL { ?c \
       p:q4 ?e } }",
      zg 16 50 400 1.4 );
    ( "three-optionals",
      "{ ?a p:q1 ?b . OPTIONAL { ?b p:q5 ?c } OPTIONAL { ?a p:q4 ?d } \
       OPTIONAL { ?b p:q3 ?e } }",
      zg 12 50 400 1.4 );
    ( "chain2-two-optionals",
      "{ ?a p:q1 ?b . ?b p:q2 ?c . OPTIONAL { ?c p:q5 ?d } OPTIONAL { ?a \
       p:q4 ?e } }",
      zg 17 50 400 1.4 );
    ( "nested-optionals",
      "{ ?a p:q1 ?b . OPTIONAL { ?b p:q3 ?c . OPTIONAL { ?c p:q5 ?d } } \
       OPTIONAL { ?a p:q4 ?e } }",
      zg 18 50 400 1.4 );
    ( "triangle-two-optionals",
      "{ ?a p:q0 ?b . ?b p:q1 ?c . ?a p:q2 ?c . OPTIONAL { ?c p:q5 ?d } \
       OPTIONAL { ?b p:q4 ?e } }",
      zg 25 60 550 1.2 );
    ( "unanchored-optional",
      "{ ?a p:q5 ?b . OPTIONAL { ?b p:q0 ?d . ?e p:q0 ?f } }",
      zg 21 50 400 1.4 );
  ]

let test_skewed_workloads () =
  let verdicts =
    List.concat_map
      (fun (name, src, graph) ->
        let pattern = Sparql.Parser.parse_exn src in
        let plan = Engine.plan pattern in
        if
          not
            (Sparql.Mapping.Set.equal
               (Engine.solutions plan graph)
               (Sparql.Eval.eval pattern graph))
        then Alcotest.failf "%s diverges from the reference evaluator" name;
        (* the decisions the evaluation just used, served from the plan's
           cache; only child nodes run a maximality test *)
        List.concat_map
          (fun tree ->
            List.filter_map
              (fun n ->
                if n = Wdpt.Pattern_tree.root then None
                else
                  Some
                    (Wd_core.Plan_cache.node_decision plan.Engine.cache graph
                       tree n)
                      .Join_order.maximality)
              (Wdpt.Pattern_tree.nodes tree))
          plan.Engine.forest)
      skewed_workloads
  in
  check Alcotest.bool "some child is tested naively" true
    (List.mem `Naive verdicts);
  check Alcotest.bool "some child runs the pebble test" true
    (List.mem `Pebble verdicts)

(* ------------------------------------------------------------------ *)
(* Planner properties                                                  *)
(* ------------------------------------------------------------------ *)

let nvars = 6

(* Random compiled patterns over [nvars] slots: variables and small
   constant ids (some absent from the store's dictionary, which must be
   fine — absent ids just estimate to 0). *)
let pterm_gen =
  QCheck.Gen.(
    frequency
      [
        (3, map (fun v -> Encoded_hom.Var v) (int_bound (nvars - 1)));
        (2, map (fun c -> Encoded_hom.Const c) (int_bound 12));
      ])

let pattern_gen = QCheck.Gen.(triple pterm_gen pterm_gen pterm_gen)

let instance_gen =
  QCheck.Gen.(
    map3
      (fun seed pats bound_mask -> (seed, Array.of_list pats, bound_mask))
      (int_bound 1_000_000)
      (list_size (int_range 0 6) pattern_gen)
      (array_size (return nvars) bool))

let instance_arb =
  QCheck.make instance_gen ~print:(fun (seed, pats, _) ->
      Printf.sprintf "seed %d, %d patterns" seed (Array.length pats))

let store seed =
  Encoded_graph.of_graph
    (Rdf.Generator.zipf ~seed:(1 + (seed mod 97)) ~n:20
       ~predicates:[ "q0"; "q1"; "q2" ] ~m:60 ~exponent:1.2 ())

let compile_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300 ~name:"orders are permutations, costs sane"
       instance_arb
       (fun (seed, pats, bound_mask) ->
         let enc = store seed in
         let d =
           Join_order.compile enc ~nvars
             ~bound:(fun v -> bound_mask.(v))
             ~node:0 pats
         in
         let npat = Array.length pats in
         let seen = Array.make npat false in
         Array.iter
           (fun i ->
             if i < 0 || i >= npat || seen.(i) then
               QCheck.Test.fail_report "order is not a permutation";
             seen.(i) <- true)
           d.Join_order.order;
         Array.length d.Join_order.order = npat
         && Array.length d.Join_order.est_cards = npat
         && Array.for_all
              (fun c -> c >= 0. && Float.is_finite c)
              d.Join_order.est_cards
         && d.Join_order.est_candidates >= 0.))

let monotone_prop =
  QCheck_alcotest.to_alcotest
    (QCheck.Test.make ~count:300
       ~name:"estimates are monotone under binding" instance_arb
       (fun (seed, pats, bound_mask) ->
         let enc = store seed in
         Array.for_all
           (fun pat ->
             let loose = Cost_model.estimate enc ~bound:(fun _ -> false) pat in
             let partial =
               Cost_model.estimate enc ~bound:(fun v -> bound_mask.(v)) pat
             in
             let tight = Cost_model.estimate enc ~bound:(fun _ -> true) pat in
             tight <= partial +. 1e-9 && partial <= loose +. 1e-9)
           pats))

(* ------------------------------------------------------------------ *)
(* Zero-pattern guard                                                  *)
(* ------------------------------------------------------------------ *)

let test_zero_pattern_fold () =
  let enc =
    Encoded_graph.of_graph
      (Rdf.Generator.random_graph ~seed:3 ~n:5 ~predicates:[ "q0" ] ~m:10)
  in
  let source = Encoded_hom.compile Tgraphs.Tgraph.empty enc in
  List.iter
    (fun (name, strategy) ->
      let folded =
        Encoded_hom.fold ~strategy source ~init:[] ~f:(fun acc h ->
            (Array.copy h :: acc, `Continue))
      in
      check Alcotest.int (name ^ ": exactly one homomorphism") 1
        (List.length folded);
      check Alcotest.int (name ^ ": empty count") 1
        (Encoded_hom.count source))
    [
      ("rescore", Encoded_hom.Rescore);
      ("adaptive", Encoded_hom.Adaptive [||]);
    ]

(* ------------------------------------------------------------------ *)
(* Explain surfaces the decisions                                      *)
(* ------------------------------------------------------------------ *)

let explain_pattern =
  Sparql.Parser.parse_exn
    "{ ?a p:knows ?b . ?a p:worksAt ?w . OPTIONAL { ?b p:email ?m } }"

let explain_graph = Generator.social ~seed:11 ~people:25

let test_explain_decisions () =
  let report = Explain.explain explain_pattern explain_graph in
  List.iter
    (fun tree_plan ->
      List.iter
        (fun np ->
          check Alcotest.int "order covers the node's triples"
            (List.length np.Explain.triples)
            (Array.length np.Explain.decision.Join_order.order))
        tree_plan)
    report.Explain.trees;
  let rendered = Fmt.str "%a" Explain.pp report in
  check Alcotest.bool "maximality verdict is visible" true
    (Astring.String.is_infix ~affix:"maximality test:" rendered);
  check Alcotest.bool "estimates shown next to actuals" true
    (Astring.String.is_infix ~affix:"est ~" rendered)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "optimizer"
    [
      ( "equivalence",
        [
          Alcotest.test_case "300 random instances = reference" `Quick
            test_equivalence_300;
          Alcotest.test_case "skewed joins = reference, both maximality tests"
            `Quick test_skewed_workloads;
        ] );
      ("properties", [ compile_prop; monotone_prop ]);
      ( "regressions",
        [
          Alcotest.test_case "zero-pattern node folds once" `Quick
            test_zero_pattern_fold;
        ] );
      ( "explain",
        [
          Alcotest.test_case "decisions and verdicts surfaced" `Quick
            test_explain_decisions;
        ] );
    ]
