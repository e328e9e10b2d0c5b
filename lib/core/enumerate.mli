(** Optimised answer enumeration for wdPTs.

    The baseline enumerator ({!Wdpt.Semantics.solutions}) recomputes the
    homomorphisms of every subtree pattern from scratch — with [c]
    optional children below a node it re-joins the shared prefix up to
    [2^c] times. This one walks the subtree lattice once, extending each
    partial homomorphism child by child, so common prefixes are joined
    once. Each subtree is visited exactly once (children are added in
    increasing node-id order, which is compatible with the parent order
    because node ids are topological).

    The join runs over the dictionary-encoded store: node patterns are
    compiled once per (tree, graph epoch) into a {!Plan_cache.t} and
    partial homomorphisms round-trip through flat int arrays, decoded
    only at the solution boundary. Each node joins in the cost-based
    order of {!Plan_cache.node_decision}, refined by incremental
    fail-first at run time ({!Encoded.Encoded_hom.Adaptive}).

    The Lemma-1 maximality condition is checked per candidate answer:
    - [`Hom] (default) uses the exact homomorphism test — cheap when
      children are easy to match;
    - [`Pebble k] uses the existential (k+1)-pebble relaxation of
      Theorem 1 — polynomial even when a child hides an NP-hard pattern,
      and exact whenever [dw ≤ k]. When the kernel is the cache's own
      pebble cache, a child the optimizer estimates to have very few
      candidate extensions is tested with a memoized naive existence
      check instead ({!Plan_cache.naive_child_test}); both are exact at
      [dw ≤ k], so answers never change (tested). *)

open Rdf

type maximality = [ `Hom | `Pebble of int ]

val solutions :
  ?budget:Resource.Budget.t ->
  ?maximality:maximality -> ?kernel:Pebble_eval.kernel ->
  ?cache:Plan_cache.t ->
  Wdpt.Pattern_forest.t -> Graph.t -> Sparql.Mapping.Set.t
(** Equals {!Wdpt.Semantics.solutions} under [`Hom], and under
    [`Pebble k] whenever [dw(F) ≤ k] (tested). One {!Plan_cache.t} is
    shared across the whole forest — pass [cache] to supply your own
    (e.g. a plan's cache, to reuse compiled sources and pebble games
    across calls, or to read its stats afterwards); pass [kernel] to
    force a specific child-test kernel (e.g. the term-level one). *)

val count :
  ?budget:Resource.Budget.t -> ?maximality:maximality ->
  ?kernel:Pebble_eval.kernel -> ?cache:Plan_cache.t ->
  Wdpt.Pattern_forest.t -> Graph.t -> int
(** Number of distinct answers. *)
