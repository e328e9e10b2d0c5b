open Rdf
open Sparql

let check = Alcotest.check

let qcheck ?(count = 100) name arb law =
  QCheck_alcotest.to_alcotest (QCheck.Test.make ~count ~name arb law)

let v = Term.var
let iri_t = Term.iri
let t s p o = Triple.make s p o
let iri = Iri.of_string

(* ------------------------------------------------------------------ *)
(* Mapping                                                             *)
(* ------------------------------------------------------------------ *)

let m = Mapping.of_list

let test_mapping_compat () =
  let m1 = m [ (Variable.of_string "x", iri "n:a"); (Variable.of_string "y", iri "n:b") ] in
  let m2 = m [ (Variable.of_string "y", iri "n:b"); (Variable.of_string "z", iri "n:c") ] in
  let m3 = m [ (Variable.of_string "y", iri "n:OTHER") ] in
  check Alcotest.bool "compatible" true (Mapping.compatible m1 m2);
  check Alcotest.bool "symmetric" true (Mapping.compatible m2 m1);
  check Alcotest.bool "incompatible" false (Mapping.compatible m1 m3);
  check Alcotest.bool "empty compatible with all" true
    (Mapping.compatible Mapping.empty m1);
  let u = Mapping.union m1 m2 in
  check Alcotest.int "union size" 3 (Mapping.cardinal u);
  check Alcotest.(option string) "union value" (Some "n:c")
    (Option.map Iri.to_string (Mapping.find (Variable.of_string "z") u))

let test_mapping_apply () =
  let m1 = m [ (Variable.of_string "x", iri "n:a") ] in
  check Testutil.triple "apply substitutes"
    (t (iri_t "n:a") (iri_t "p:p") (v "y"))
    (Mapping.apply m1 (t (v "x") (iri_t "p:p") (v "y")))

let test_mapping_conversions () =
  let m1 = m [ (Variable.of_string "x", iri "n:a") ] in
  check Alcotest.bool "assignment roundtrip" true
    (match Mapping.of_assignment (Mapping.to_assignment m1) with
    | Some m2 -> Mapping.equal m1 m2
    | None -> false);
  let bad = Variable.Map.singleton (Variable.of_string "x") (v "y") in
  check Alcotest.bool "non-iri rejected" true (Mapping.of_assignment bad = None)

(* Literals travel through the engine as reserved IRIs; a printed
   solution shows them in literal syntax, never as their encoding. *)
let test_mapping_prints_literals () =
  let bind lit = m [ (Variable.of_string "v", Literal.encode lit) ] in
  check Alcotest.string "language-tagged" "{?v ↦ \"Ann\"@en}"
    (Printer.mapping_to_string (bind (Literal.lang_tagged "Ann" "en")));
  check Alcotest.string "typed" "{?v ↦ \"5\"^^<urn:int>}"
    (Printer.mapping_to_string (bind (Literal.typed "5" (iri "urn:int"))));
  check Alcotest.string "plain IRI unchanged" "{?v ↦ n:a}"
    (Printer.mapping_to_string (m [ (Variable.of_string "v", iri "n:a") ]))

(* ------------------------------------------------------------------ *)
(* Algebra                                                             *)
(* ------------------------------------------------------------------ *)

let p1 =
  (* P1 of Example 1 *)
  Algebra.opt
    (Algebra.opt
       (Algebra.triple (t (v "x") (iri_t "p:p") (v "y")))
       (Algebra.triple (t (v "z") (iri_t "p:q") (v "x"))))
    (Algebra.and_
       (Algebra.triple (t (v "y") (iri_t "p:r") (v "o1")))
       (Algebra.triple (t (v "o1") (iri_t "p:r") (v "o2"))))

let p2 =
  (* P2 of Example 1 — not well-designed *)
  Algebra.opt
    (Algebra.opt
       (Algebra.triple (t (v "x") (iri_t "p:p") (v "y")))
       (Algebra.triple (t (v "z") (iri_t "p:q") (v "x"))))
    (Algebra.and_
       (Algebra.triple (t (v "y") (iri_t "p:r") (v "z")))
       (Algebra.triple (t (v "z") (iri_t "p:r") (v "o2"))))

let test_algebra_accessors () =
  check Alcotest.int "size" 4 (Algebra.size p1);
  check Alcotest.int "depth" 2 (Algebra.depth p1);
  check Alcotest.int "vars" 5 (Variable.Set.cardinal (Algebra.vars p1));
  check Alcotest.int "subpatterns" 7 (List.length (Algebra.subpatterns p1));
  check Alcotest.bool "equal refl" true (Algebra.equal p1 p1);
  check Alcotest.bool "distinct" false (Algebra.equal p1 p2)

(* ------------------------------------------------------------------ *)
(* Well-designedness (Example 1 of the paper)                          *)
(* ------------------------------------------------------------------ *)

let test_example1 () =
  check Alcotest.bool "P1 is well-designed" true (Well_designed.is_well_designed p1);
  check Alcotest.bool "P2 is not" false (Well_designed.is_well_designed p2);
  (match Well_designed.check p2 with
  | Error (Well_designed.Unsafe_variable { variable = var; _ }) ->
      check Alcotest.string "?z is the offender" "z" (Variable.to_string var)
  | _ -> Alcotest.fail "expected Unsafe_variable ?z")

let test_union_handling () =
  let u = Algebra.union p1 p1 in
  check Alcotest.bool "top-level union fine" true (Well_designed.is_well_designed u);
  check Alcotest.int "branches" 2 (List.length (Well_designed.union_branches u));
  let nested = Algebra.and_ u (Algebra.triple (t (v "x") (iri_t "p:s") (v "w"))) in
  check Alcotest.bool "nested union rejected" false
    (Well_designed.is_well_designed nested);
  (match Well_designed.check nested with
  | Error (Well_designed.Nested_union _) -> ()
  | _ -> Alcotest.fail "expected Nested_union");
  check Alcotest.bool "union free" false (Well_designed.is_union_free u);
  check Alcotest.bool "p1 union free" true (Well_designed.is_union_free p1)

let test_and_scope () =
  (* ?z in the OPT arm also occurs in a sibling AND conjunct -> unsafe *)
  let bad =
    Algebra.and_
      (Algebra.opt
         (Algebra.triple (t (v "x") (iri_t "p:p") (v "y")))
         (Algebra.triple (t (v "x") (iri_t "p:q") (v "z"))))
      (Algebra.triple (t (v "z") (iri_t "p:s") (v "w")))
  in
  check Alcotest.bool "sibling leak rejected" false (Well_designed.is_well_designed bad)

let random_wd_patterns_are_wd =
  qcheck ~count:100 "generated patterns are well-designed" Testutil.wd_pattern
    Well_designed.is_well_designed

(* ------------------------------------------------------------------ *)
(* Parser / Printer                                                    *)
(* ------------------------------------------------------------------ *)

let parses s =
  match Parser.parse s with
  | Ok p -> p
  | Error e -> Alcotest.failf "parse error: %s" e

let test_parser_basics () =
  let p = parses "{ ?x p:knows ?y . }" in
  check Testutil.algebra "single triple"
    (Algebra.triple (t (v "x") (iri_t "p:knows") (v "y")))
    p;
  let p = parses "{ ?x p:a ?y . ?y p:b ?z }" in
  check Alcotest.int "implicit AND" 2 (Algebra.size p);
  let p = parses "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z } }" in
  (match p with Algebra.Opt _ -> () | _ -> Alcotest.fail "expected OPT");
  let p = parses "{ ?x p:a ?y } UNION { ?x p:b ?y }" in
  (match p with Algebra.Union _ -> () | _ -> Alcotest.fail "expected UNION");
  let p = parses "{ { ?x p:a ?y } UNION { ?x p:b ?y } }" in
  (match p with Algebra.Union _ -> () | _ -> Alcotest.fail "nested braces union")

let test_parser_prefixes_and_keywords () =
  let p = parses "PREFIX foaf: <http://xmlns.com/foaf/0.1/> { ?a foaf:knows ?b }" in
  check Testutil.algebra "prefix expansion"
    (Algebra.triple (t (v "a") (iri_t "http://xmlns.com/foaf/0.1/knows") (v "b")))
    p;
  let p = parses "{ ?x p:a ?y . optional { ?y p:b ?z } }" in
  (match p with Algebra.Opt _ -> () | _ -> Alcotest.fail "keywords case-insensitive");
  let p = parses "{ <http://e.org/s> <http://e.org/p> ?o }" in
  check Alcotest.int "iriref terms" 1 (Algebra.size p)

let test_parser_errors () =
  let fails s =
    match Parser.parse s with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "should not parse: %s" s
  in
  fails "{ }";
  fails "{ OPTIONAL { ?x p:a ?y } }";
  fails "{ ?x p:a }";
  fails "{ ?x p:a ?y } junk";
  fails "?x p:a ?y";
  fails "{ ?x p:a ?y . OPTIONAL ?z }";
  fails "{ ?x p:a <unterminated }"

let roundtrip =
  qcheck ~count:150 "print-then-parse is the identity" Testutil.wd_pattern
    (fun p ->
      match Parser.parse (Printer.to_string p) with
      | Ok p' -> Algebra.equal p p'
      | Error _ -> false)

let test_roundtrip_handwritten () =
  List.iter
    (fun src ->
      let p = parses src in
      check Testutil.algebra src p (parses (Printer.to_string p)))
    [
      "{ ?x p:a ?y }";
      "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z } OPTIONAL { ?y p:c ?w } }";
      "{ { ?x p:a ?y } UNION { ?x p:b ?y } } UNION { ?x p:c ?y }";
      "{ ?x p:a ?y . OPTIONAL { ?y p:b ?z . OPTIONAL { ?z p:c ?w } } }";
      "{ ?x p:a c:1 . c:2 p:b ?x }";
    ]

(* ------------------------------------------------------------------ *)
(* Eval (the recursive semantics)                                      *)
(* ------------------------------------------------------------------ *)

let tiny_graph =
  Graph.of_triples
    [
      t (iri_t "n:a") (iri_t "p:knows") (iri_t "n:b");
      t (iri_t "n:b") (iri_t "p:knows") (iri_t "n:c");
      t (iri_t "n:b") (iri_t "p:mail") (iri_t "m:b");
    ]

let sols p = Eval.eval (parses p) tiny_graph

let test_eval_triple () =
  let s = sols "{ ?x p:knows ?y }" in
  check Alcotest.int "two matches" 2 (Mapping.Set.cardinal s);
  let s = sols "{ n:a p:knows ?y }" in
  check Testutil.mapping_set "constant subject"
    (Mapping.Set.singleton (m [ (Variable.of_string "y", iri "n:b") ]))
    s

let test_eval_and () =
  let s = sols "{ ?x p:knows ?y . ?y p:knows ?z }" in
  check Alcotest.int "join" 1 (Mapping.Set.cardinal s);
  let s = sols "{ ?x p:knows ?y . ?y p:missing ?z }" in
  check Alcotest.int "empty join" 0 (Mapping.Set.cardinal s)

let test_eval_opt () =
  (* n:a has no mail, n:b does: OPT keeps both, extending only n:b *)
  let s = sols "{ ?x p:knows ?y . OPTIONAL { ?y p:mail ?m } }" in
  check Alcotest.int "both solutions" 2 (Mapping.Set.cardinal s);
  let extended =
    Mapping.Set.filter (fun mu -> Mapping.find (Variable.of_string "m") mu <> None) s
  in
  check Alcotest.int "exactly one extended" 1 (Mapping.Set.cardinal extended);
  (* the unextended solution is for ?y = n:c (who has no mail) *)
  let bare = Mapping.Set.choose (Mapping.Set.diff s extended) in
  check Alcotest.(option string) "bare solution is b->c" (Some "n:c")
    (Option.map Iri.to_string (Mapping.find (Variable.of_string "y") bare))

let test_eval_opt_subtlety () =
  (* µ1 is dropped from the OPT part only if NO compatible µ2 exists *)
  let s = sols "{ ?x p:knows ?y . OPTIONAL { ?z p:mail m:b } }" in
  (* right side has solutions {z=n:b}; compatible with everything *)
  check Alcotest.int "all extended" 2 (Mapping.Set.cardinal s);
  Mapping.Set.iter
    (fun mu ->
      check Alcotest.(option string) "z bound" (Some "n:b")
        (Option.map Iri.to_string (Mapping.find (Variable.of_string "z") mu)))
    s

let test_eval_union () =
  let s = sols "{ ?x p:knows ?y } UNION { ?x p:mail ?w }" in
  check Alcotest.int "union" 3 (Mapping.Set.cardinal s)

let test_eval_check () =
  let p = parses "{ ?x p:knows ?y }" in
  let yes = m [ (Variable.of_string "x", iri "n:a"); (Variable.of_string "y", iri "n:b") ] in
  let no = m [ (Variable.of_string "x", iri "n:a") ] in
  check Alcotest.bool "member" true (Eval.check p tiny_graph yes);
  check Alcotest.bool "partial mapping is not a solution" false
    (Eval.check p tiny_graph no)

let () =
  Alcotest.run "sparql"
    [
      ( "mapping",
        [
          Alcotest.test_case "compatibility/union" `Quick test_mapping_compat;
          Alcotest.test_case "apply" `Quick test_mapping_apply;
          Alcotest.test_case "conversions" `Quick test_mapping_conversions;
          Alcotest.test_case "prints literals" `Quick test_mapping_prints_literals;
        ] );
      ( "algebra",
        [ Alcotest.test_case "accessors" `Quick test_algebra_accessors ] );
      ( "well-designed",
        [
          Alcotest.test_case "paper example 1" `Quick test_example1;
          Alcotest.test_case "union placement" `Quick test_union_handling;
          Alcotest.test_case "AND-sibling scope" `Quick test_and_scope;
          random_wd_patterns_are_wd;
        ] );
      ( "parser",
        [
          Alcotest.test_case "basics" `Quick test_parser_basics;
          Alcotest.test_case "prefixes/keywords" `Quick test_parser_prefixes_and_keywords;
          Alcotest.test_case "errors" `Quick test_parser_errors;
          Alcotest.test_case "handwritten roundtrips" `Quick test_roundtrip_handwritten;
          roundtrip;
        ] );
      ( "eval",
        [
          Alcotest.test_case "triple" `Quick test_eval_triple;
          Alcotest.test_case "and" `Quick test_eval_and;
          Alcotest.test_case "opt" `Quick test_eval_opt;
          Alcotest.test_case "opt compatibility subtlety" `Quick test_eval_opt_subtlety;
          Alcotest.test_case "union" `Quick test_eval_union;
          Alcotest.test_case "check" `Quick test_eval_check;
        ] );
    ]
