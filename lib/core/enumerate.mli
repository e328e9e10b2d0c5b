(** Optimised answer enumeration for wdPTs.

    The baseline enumerator ({!Wdpt.Semantics.solutions}) recomputes the
    homomorphisms of every subtree pattern from scratch — with [c]
    optional children below a node it re-joins the shared prefix up to
    [2^c] times. This one walks the subtree lattice once, extending each
    partial homomorphism child by child, so common prefixes are joined
    once. Each subtree is visited exactly once (children are added in
    increasing node-id order, which is compatible with the parent order
    because node ids are topological).

    The join itself runs over the dictionary-encoded store by default
    ([`Encoded]): node patterns are compiled once per (tree, graph
    epoch) into a {!Plan_cache.t} and partial homomorphisms round-trip
    through flat int arrays, decoded only at the solution boundary.
    [`Term] keeps the PR 2 term-level join (hash probes on terms) — the
    ablation A7 baseline; both produce identical answer sets (tested).

    The Lemma-1 maximality condition is checked per candidate answer:
    - [`Hom] (default) uses the exact homomorphism test — cheap when
      children are easy to match;
    - [`Pebble k] uses the existential (k+1)-pebble relaxation of
      Theorem 1 — polynomial even when a child hides an NP-hard pattern,
      and exact whenever [dw ≤ k]. *)

open Rdf

type maximality = [ `Hom | `Pebble of int ]
type join = [ `Encoded | `Term ]

type optimize = [ `Off | `On ]
(** Join planning mode of the encoded join (ablation A10):
    - [`Off] (default): exact fail-first per-prefix rescoring — every
      pattern of the node is re-counted at every depth (the PR 3
      baseline, {!Encoded.Encoded_hom.Rescore});
    - [`On]: the cost-based compiled order of {!Plan_cache.node_decision}
      as seed with incremental fail-first refinement — only patterns
      touched by a newly bound variable are re-counted
      ({!Encoded.Encoded_hom.Adaptive}), and each node's Lemma-1 test
      runs naively instead of through the pebble relaxation when the
      optimizer estimates very few candidate extensions (both exact
      under the planner's [dw ≤ k] invariant, so answers never change —
      tested). *)

val solutions_tree :
  ?budget:Resource.Budget.t ->
  ?maximality:maximality -> ?kernel:Pebble_eval.kernel ->
  ?join:join -> ?cache:Plan_cache.t -> ?optimize:optimize ->
  Wdpt.Pattern_tree.t -> Graph.t -> Sparql.Mapping.Set.t

val solutions :
  ?budget:Resource.Budget.t ->
  ?maximality:maximality -> ?kernel:Pebble_eval.kernel ->
  ?join:join -> ?cache:Plan_cache.t -> ?optimize:optimize ->
  Wdpt.Pattern_forest.t -> Graph.t -> Sparql.Mapping.Set.t
(** Equals {!Wdpt.Semantics.solutions} under [`Hom], and under
    [`Pebble k] whenever [dw(F) ≤ k] (tested). One {!Plan_cache.t} is
    shared across the whole forest — pass [cache] to supply your own
    (e.g. a plan's cache, to reuse compiled sources and pebble games
    across calls, or to read its stats afterwards); pass [kernel] to
    force a specific child-test kernel (e.g. the term-level one). *)

val count :
  ?budget:Resource.Budget.t -> ?maximality:maximality ->
  ?kernel:Pebble_eval.kernel -> ?join:join -> ?cache:Plan_cache.t ->
  ?optimize:optimize ->
  Wdpt.Pattern_forest.t -> Graph.t -> int
(** Number of distinct answers. *)
