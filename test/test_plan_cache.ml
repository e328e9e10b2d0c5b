(* PR 3: plan-level caching across evaluations. The contract under test:
   repeated [Engine.solutions] calls on one plan reuse compiled hom
   sources and pebble games; mutating the graph (a new store, hence a new
   epoch) invalidates and recompiles without changing answers; and the
   size-capped verdict LRU only ever trades memory for recomputation,
   never answers. *)

open Rdf
module Engine = Wd_core.Engine
module Plan_cache = Wd_core.Plan_cache

let check = Alcotest.check

let set_equal = Sparql.Mapping.Set.equal

(* The paper's F_5 ({!Workload.Query_families.f_k}): the OPTIONAL
   child of its first tree hides a 5-clique, eleven triple patterns —
   past the optimizer's naive-test limit, so that child runs the pebble
   test whose caches this suite observes (pinned by
   [test_fixture_routes_to_pebble]). *)
let pattern = Wdpt.Pattern_forest.to_algebra (Workload.Query_families.f_k 5)

(* A random r-tournament plus p-edges from two more anchors to every
   node: each node's clique verdict repeats across anchors, so the
   verdict memo has something to reuse within one evaluation. *)
let store ~seed ~n =
  let g, _ = Workload.Graph_families.tournament_instance ~seed ~n in
  let anchored a =
    List.init n (fun j ->
        Triple.make (Term.iri a) (Term.iri "p:p")
          (Workload.Graph_families.tnode j))
  in
  Graph.union g (Graph.of_triples (anchored "n:a1" @ anchored "n:a2"))

let graph = store ~seed:5 ~n:8
let other_graph = store ~seed:11 ~n:7

let reference g = Sparql.Eval.eval pattern g

let test_fixture_routes_to_pebble () =
  let plan = Engine.plan pattern in
  let clique_tree = List.hd plan.Engine.forest and clique_child = 2 in
  check Alcotest.bool "the optimizer routes the clique child to pebble" true
    ((Plan_cache.node_decision plan.Engine.cache graph clique_tree
        clique_child)
       .Optimizer.Join_order.maximality = `Pebble)

(* ------------------------------------------------------------------ *)
(* Epoch stamps                                                        *)
(* ------------------------------------------------------------------ *)

let test_epochs () =
  let t =
    Triple.make (Term.iri "n:a") (Term.iri "p:knows") (Term.iri "n:b")
  in
  let g1 = Graph.of_triples [ t ] and g2 = Graph.of_triples [ t ] in
  check Alcotest.bool "structurally equal graphs" true (Graph.equal g1 g2);
  check Alcotest.bool "distinct stores get distinct epochs" true
    (Graph.epoch g1 <> Graph.epoch g2);
  check Alcotest.bool "union is a new store" true
    (Graph.epoch (Graph.union g1 g2) <> Graph.epoch g1);
  check Alcotest.int "encoded copy carries the source epoch"
    (Graph.epoch g1)
    (Encoded.Encoded_graph.epoch (Encoded.Encoded_graph.of_graph g1))

(* ------------------------------------------------------------------ *)
(* Warm reuse on an unchanged graph                                    *)
(* ------------------------------------------------------------------ *)

let test_warm_reuse () =
  let plan = Engine.plan pattern in
  let a1, s1 = Engine.solutions_stats plan graph in
  let s1 = Option.get s1 in
  let a2, s2 = Engine.solutions_stats plan graph in
  let s2 = Option.get s2 in
  check Alcotest.bool "both runs match the reference" true
    (set_equal a1 (reference graph) && set_equal a2 a1);
  check Alcotest.int "no invalidation" 0 s2.Plan_cache.invalidations;
  check Alcotest.int "hom sources compiled once, reused warm"
    s1.Plan_cache.hom_sources s2.Plan_cache.hom_sources;
  check Alcotest.int "pebble games compiled once, reused warm"
    s1.Plan_cache.pebble.Wd_core.Pebble_cache.compiled
    s2.Plan_cache.pebble.Wd_core.Pebble_cache.compiled;
  check Alcotest.bool "warm run hits the verdict memo" true
    (s2.Plan_cache.pebble.Wd_core.Pebble_cache.hits
    > s1.Plan_cache.pebble.Wd_core.Pebble_cache.hits)

(* ------------------------------------------------------------------ *)
(* Epoch invalidation on mutation                                      *)
(* ------------------------------------------------------------------ *)

let test_epoch_invalidation () =
  let plan = Engine.plan pattern in
  let a1, s1 = Engine.solutions_stats plan graph in
  let s1 = Option.get s1 in
  check Alcotest.bool "first run matches the reference" true
    (set_equal a1 (reference graph));
  (* "mutate" the graph: immutable stores make every mutation a new
     store with a fresh epoch *)
  let g2 =
    Graph.union graph
      (Graph.of_triples
         [
           Triple.make (Term.iri "n:fresh") (Term.iri "p:p")
             (Workload.Graph_families.tnode 0);
         ])
  in
  let a2, s2 = Engine.solutions_stats plan g2 in
  let s2 = Option.get s2 in
  check Alcotest.bool "answers track the mutated graph" true
    (set_equal a2 (reference g2));
  check Alcotest.int "stats report the invalidation" 1
    s2.Plan_cache.invalidations;
  check Alcotest.bool "sources were recompiled for the new store" true
    (s2.Plan_cache.hom_sources > s1.Plan_cache.hom_sources);
  check Alcotest.bool "games were recompiled for the new store" true
    (s2.Plan_cache.pebble.Wd_core.Pebble_cache.compiled
    > s1.Plan_cache.pebble.Wd_core.Pebble_cache.compiled);
  (* steady again on the new store *)
  let a3, s3 = Engine.solutions_stats plan g2 in
  let s3 = Option.get s3 in
  check Alcotest.bool "re-run on the new store agrees" true (set_equal a3 a2);
  check Alcotest.int "no further invalidation" 1 s3.Plan_cache.invalidations;
  check Alcotest.int "no further compilation"
    s2.Plan_cache.hom_sources s3.Plan_cache.hom_sources;
  (* membership checks share the plan cache and survive the swap too *)
  Sparql.Mapping.Set.iter
    (fun mu ->
      check Alcotest.bool "check agrees on the new store" true
        (Engine.check plan g2 mu))
    a2

(* ------------------------------------------------------------------ *)
(* Multi-store MRU (PR 4)                                              *)
(* ------------------------------------------------------------------ *)

let run_on plan g =
  let a, s = Engine.solutions_stats plan g in
  check Alcotest.bool "answers match the reference" true
    (set_equal a (reference g));
  Option.get s

let test_mru_two_stores () =
  let plan = Engine.plan pattern in
  let g1 = graph and g2 = other_graph in
  let _ = run_on plan g1 in
  let s2 = run_on plan g2 in
  check Alcotest.int "switching stores builds a second entry" 1
    s2.Plan_cache.invalidations;
  (* alternating between two live stores rebuilds nothing: each run is a
     front-of-list bump, not a recompile *)
  let s = ref s2 in
  for _ = 1 to 3 do
    s := run_on plan g1;
    s := run_on plan g2
  done;
  check Alcotest.int "alternation never rebuilds" 1
    !s.Plan_cache.invalidations;
  check Alcotest.int "no eviction under the default capacity" 0
    !s.Plan_cache.plan_evictions;
  check Alcotest.int "both stores stay cached" 2 !s.Plan_cache.live_entries;
  check Alcotest.int "no games recompiled while alternating"
    s2.Plan_cache.pebble.Wd_core.Pebble_cache.compiled
    !s.Plan_cache.pebble.Wd_core.Pebble_cache.compiled

let test_plan_capacity_eviction () =
  let plan = Engine.plan ~plan_capacity:1 pattern in
  let g1 = graph and g2 = other_graph in
  let _ = run_on plan g1 in
  let s2 = run_on plan g2 in
  let s3 = run_on plan g1 in
  check Alcotest.int "every switch rebuilds at capacity 1" 2
    s3.Plan_cache.invalidations;
  check Alcotest.int "each rebuild evicted the previous store" 2
    s3.Plan_cache.plan_evictions;
  check Alcotest.int "one live entry" 1 s3.Plan_cache.live_entries;
  (* counters from the evicted entries are retired, not lost: the third
     build adds to a total that still includes the first two *)
  check Alcotest.bool "retired compile counts accumulate" true
    (s3.Plan_cache.pebble.Wd_core.Pebble_cache.compiled
    > s2.Plan_cache.pebble.Wd_core.Pebble_cache.compiled)

(* ------------------------------------------------------------------ *)
(* Shared unary base domains (PR 4)                                    *)
(* ------------------------------------------------------------------ *)

let test_unary_sharing () =
  let iri = Term.iri in
  let knows a b = Triple.make (iri a) (iri "p:knows") (iri b) in
  let active a = Triple.make (iri a) (iri "p:active") (iri "p:yes") in
  let g =
    Graph.of_triples
      [
        knows "n:a" "n:b"; knows "n:b" "n:c"; knows "n:a" "n:c";
        knows "n:c" "n:d"; active "n:b"; active "n:c";
      ]
  in
  (* both OPTIONAL children contain the same µ-independent unary triple
     pattern (?_ p:active p:yes); its base domain is scanned once and
     reused when the second child's game family is compiled *)
  let p =
    Sparql.Parser.parse_exn
      "{ ?a p:knows ?b . OPTIONAL { ?a p:knows ?y . ?y p:active p:yes } \
       OPTIONAL { ?b p:knows ?z . ?z p:active p:yes } }"
  in
  let plan = Engine.plan p in
  let answers = Engine.solutions plan g in
  check Alcotest.bool "answers match the reference" true
    (set_equal answers (Sparql.Eval.eval p g));
  (* children this small run the optimizer's naive test during
     enumeration; membership checks always play the pebble game, through
     the same plan cache *)
  Sparql.Mapping.Set.iter
    (fun mu ->
      check Alcotest.bool "every answer checks as a member" true
        (Engine.check plan g mu))
    answers;
  let pb = (Plan_cache.stats plan.Engine.cache).Plan_cache.pebble in
  check Alcotest.bool "some unary domains were scanned" true
    (pb.Wd_core.Pebble_cache.unary_misses > 0);
  check Alcotest.bool "the two children's games share unary scans" true
    (pb.Wd_core.Pebble_cache.unary_hits > 0)

(* ------------------------------------------------------------------ *)
(* Retired counters across eviction churn (PR 6)                       *)
(* ------------------------------------------------------------------ *)

module Pebble_cache = Wd_core.Pebble_cache

(* Reconciliation under churn: the same evaluation sequence, with and
   without eviction pressure, accounts for exactly the same number of
   verdict lookups — eviction may force recompilation, never lose
   counters — and every total is monotone run over run. *)
let test_retired_reconcile_churn () =
  let g1 = graph and g2 = other_graph in
  let churn = Engine.plan ~plan_capacity:1 pattern in
  let roomy = Engine.plan pattern in
  let lookups s =
    s.Plan_cache.pebble.Pebble_cache.hits
    + s.Plan_cache.pebble.Pebble_cache.misses
  in
  let last = ref 0 in
  let run plan g =
    let a, s = Engine.solutions_stats plan g in
    check Alcotest.bool "answers match the reference" true
      (set_equal a (reference g));
    Option.get s
  in
  let final_churn = ref None and final_roomy = ref None in
  for i = 1 to 3 do
    ignore i;
    let sc = run churn g1 in
    check Alcotest.bool "lookup total is monotone across churn" true
      (lookups sc >= !last);
    last := lookups sc;
    let sc = run churn g2 in
    check Alcotest.bool "lookup total is monotone across churn" true
      (lookups sc >= !last);
    last := lookups sc;
    final_churn := Some sc;
    ignore (run roomy g1);
    final_roomy := Some (run roomy g2)
  done;
  let sc = Option.get !final_churn and sr = Option.get !final_roomy in
  check Alcotest.int
    "evicting and non-evicting plans account the same lookups"
    (lookups sr) (lookups sc);
  check Alcotest.bool "churn recompiles, reconciled in retired totals" true
    (sc.Plan_cache.pebble.Pebble_cache.compiled
    >= sr.Plan_cache.pebble.Pebble_cache.compiled);
  check Alcotest.int "capacity 1 evicted on every switch" 5
    sc.Plan_cache.plan_evictions

(* ------------------------------------------------------------------ *)
(* Verdict LRU                                                         *)
(* ------------------------------------------------------------------ *)

let test_verdict_lru () =
  let run cache =
    let answers =
      Wd_core.Enumerate.solutions ~maximality:(`Pebble 1)
        ~kernel:(Wd_core.Pebble_eval.Cached cache)
        (Wdpt.Pattern_forest.of_algebra pattern)
        graph
    in
    (answers, Pebble_cache.stats cache)
  in
  let ac, sc = run (Pebble_cache.create ~verdict_capacity:1 graph) in
  let au, su = run (Pebble_cache.create graph) in
  check Alcotest.bool "capped answers = uncapped answers" true
    (set_equal ac au);
  check Alcotest.bool "capped answers = reference" true
    (set_equal ac (reference graph));
  check Alcotest.bool "a capacity of 1 must evict" true
    (sc.Pebble_cache.evictions > 0);
  check Alcotest.int "the generous default evicts nothing" 0
    su.Pebble_cache.evictions;
  (* the cap trades memo hits for recomputation, nothing else *)
  check Alcotest.bool "capped run recomputes more" true
    (sc.Pebble_cache.misses >= su.Pebble_cache.misses)

let () =
  Alcotest.run "plan_cache"
    [
      ("epochs", [ Alcotest.test_case "stamps" `Quick test_epochs ]);
      ( "fixture",
        [
          Alcotest.test_case "the clique child runs the pebble test" `Quick
            test_fixture_routes_to_pebble;
        ] );
      ( "reuse",
        [
          Alcotest.test_case "warm reuse" `Quick test_warm_reuse;
          Alcotest.test_case "epoch invalidation" `Quick
            test_epoch_invalidation;
        ] );
      ( "mru",
        [
          Alcotest.test_case "two stores alternate warm" `Quick
            test_mru_two_stores;
          Alcotest.test_case "capacity 1 evicts" `Quick
            test_plan_capacity_eviction;
        ] );
      ( "unary",
        [
          Alcotest.test_case "base domains shared across families" `Quick
            test_unary_sharing;
        ] );
      ( "retired",
        [
          Alcotest.test_case "churn reconciles with no-churn" `Quick
            test_retired_reconcile_churn;
        ] );
      ("lru", [ Alcotest.test_case "verdict eviction" `Quick test_verdict_lru ]);
    ]
