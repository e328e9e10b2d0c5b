(** The reference evaluator: a direct implementation of the recursive
    semantics [⟦P⟧G] of Section 2 of the paper. It materialises full
    solution sets at every node, so it is exponential in general (pattern
    evaluation is PSPACE-complete) — it serves as ground truth for the
    optimised evaluators and as the baseline in benchmarks. *)

open Rdf

val eval : ?budget:Resource.Budget.t -> Algebra.t -> Graph.t -> Mapping.Set.t
(** [⟦P⟧G]. Every answer of the final set counts against the budget's
    solution cap ({!Resource.Budget.solution}, phase ["reference-eval"]);
    the intermediate sets of subpatterns do not. *)

val check :
  ?budget:Resource.Budget.t -> Algebra.t -> Graph.t -> Mapping.t -> bool
(** [µ ∈ ⟦P⟧G], by full evaluation. *)
