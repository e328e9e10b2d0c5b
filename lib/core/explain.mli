(** Query plans, explained: what the evaluator will do for a pattern over
    a concrete graph, with statistics-based cardinality estimates.

    For each tree of [wdpf(P)] the report lists the root-to-leaf structure
    with, per node, its triple patterns in the order the join will
    evaluate them: the cost-based compiled order of
    {!Plan_cache.node_decision}, each step annotated with the model's
    estimated cardinality next to the exact match count of its constant
    positions, and each non-root node with its pebble-vs-naive
    maximality verdict. *)

type triple_plan = {
  triple : Rdf.Triple.t;
  estimated : float;
      (** {!Rdf.Stats.estimated_matches} of the pattern on its own; the
          per-step estimate given the bindings of earlier steps lives in
          the node's [decision.est_cards] (aligned with the list
          order) *)
  actual : int;
      (** exact matches of the pattern's constant positions against the
          store — what the estimate approximates *)
}

type node_plan = {
  node : Wdpt.Pattern_tree.node;
  depth : int;
  new_vars : Rdf.Variable.t list;  (** variables introduced by this node *)
  triples : triple_plan list;  (** in planned evaluation order *)
  decision : Optimizer.Join_order.decision;
      (** the cost-based plan: compiled join order, per-step estimates,
          expected candidate count, and the maximality verdict *)
}

type tree_plan = node_plan list
(** Pre-order. *)

type t = {
  classification : Classify.t;
  plan : Engine.plan;
  trees : tree_plan list;
  graph_triples : int;
}

(** [explain ?budget p g]: under a [budget], width analysis degrades
    gracefully (see {!Engine.plan} and {!Classify.classify}) instead of
    raising. *)
val explain :
  ?budget:Resource.Budget.t -> Sparql.Algebra.t -> Rdf.Graph.t -> t

val pp : t Fmt.t
