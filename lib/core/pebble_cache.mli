(** Evaluation-wide cache for the Theorem-1 pebble-game child tests.

    A single evaluation ({!Pebble_eval.check}/[solutions], or
    {!Enumerate.solutions} under [`Pebble k]) issues the relaxed
    extension test [(pat(T') ∪ pat(n), vars(T')) →µ_{k+1} G] for many
    (mapping, subtree, child) combinations against one fixed graph. This
    layer makes the repeated work incremental:

    - the graph is dictionary-encoded once ({!Encoded_graph}), shared by
      every test;
    - each (subtree, child) game is compiled once
      ({!Encoded_pebble.compile}), including its µ-independent unary
      candidate domains, and replayed across candidate mappings;
    - verdicts are memoized keyed on µ restricted to the variables the
      child shares with the subtree — sound because the union game
      decomposes exactly into "subtree pattern ground under µ is in G"
      plus the game on [(pat(n), shared)] with [µ|shared].

    Results are identical to the uncached {!Pebble.Pebble_game.wins}
    path (cross-checked by qcheck in the tests). *)

open Rdf

type t

type stats = {
  hits : int;
  misses : int;
  compiled : int;
  families : int;
  evictions : int;
  unary_hits : int;
  unary_misses : int;
}
(** [hits]/[misses]: verdict-memo outcomes; [compiled]: child games
    compiled; [families]: partial-homomorphism families enumerated by
    the kernel on behalf of this cache; [evictions]: verdicts dropped by
    the LRU capacity bound; [unary_hits]/[unary_misses]: µ-independent
    unary candidate domains reused across game compiles vs actually
    scanned (the per-(tree, store) sharing of base domains). *)

val create : ?verdict_capacity:int -> Graph.t -> t
(** A cache for evaluations against [graph]. [verdict_capacity] bounds the number of memoized verdicts across
    {e all} games of this cache (least-recently-used eviction; default
    [2^20]), so enumerations over huge µ|shared spaces stop growing
    without bound. Raises [Invalid_argument] if it is [< 1]. *)

val graph : t -> Graph.t
(** The graph this cache was created for. Callers must not use the
    cache against any other graph (checked by epoch equality in
    {!Pebble_eval}). *)

val child_test :
  t ->
  ?budget:Resource.Budget.t ->
  k:int ->
  Wdpt.Pattern_tree.t ->
  Sparql.Mapping.t ->
  Wdpt.Subtree.t ->
  Wdpt.Pattern_tree.node ->
  bool
(** Cached equivalent of {!Pebble_eval.child_test} (same arguments minus
    the graph, which the cache owns). Budget-transparent: ticks through
    {!Encoded_pebble.run} on misses and at least once on hits.

    Precondition: [dom µ = vars(subtree)] — which is exactly what
    {!Wdpt.Subtree.matching} and the enumerator produce. (The term-level
    kernel would ground a child variable bound by a larger µ, whereas
    the compiled game quantifies it existentially.) *)

val stage_child_test_ids :
  t ->
  ?budget:Resource.Budget.t ->
  k:int ->
  Wdpt.Pattern_tree.t ->
  vars:Variable.t array ->
  Wdpt.Subtree.t ->
  Wdpt.Pattern_tree.node ->
  int array ->
  bool
(** Id-level variant of {!child_test} for the encoded enumerator, staged
    per (subtree, child) pair: the game and the param-to-slot tables are
    resolved once, and the returned test takes a candidate as the flat
    dictionary-id assignment over the shared variable table [vars]
    ({!Plan_cache.variables}) instead of a term mapping, so no
    decode/re-encode round-trip happens per candidate. The assignment
    must cover [vars(subtree)] with ids valid for this cache's graph
    (which the encoded join guarantees). Same precondition and verdict
    memoization as {!child_test}; param-to-slot resolution is cached per
    game keyed on [vars]'s physical identity. The enumerator stages each
    child's test once per candidate batch. *)

val stats : t -> stats
val pp_stats : stats Fmt.t
