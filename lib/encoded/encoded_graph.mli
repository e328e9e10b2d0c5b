(** A dictionary-encoded, sorted-array triple store.

    Terms are interned to dense ints ({!Rdf.Dictionary}) and the triples
    kept in three sorted permutations (SPO, POS, OSP), so any
    partially-bound lookup is answered by binary-searching the permutation
    whose sort order puts the bound positions first. This is the classical
    RDF-store layout (contrast with the hash-indexed {!Rdf.Index}); the
    two backends are cross-checked in the tests and compared in bench A4. *)

type t

type flat_view = { fn : int; fget : int -> int * int * int }
(** One sorted permutation provided as closures: [fn] triples, [fget i]
    the i-th raw (s, p, o) id triple in the permutation's sort order.
    How a compiled on-disk store ([Storage]) exposes its mmap'd index
    sections without this module knowing about bytes, mappings, or
    [Bigarray] — the join, pebble and statistics code paths are
    backend-blind. [fget] must be pure and total on [0, fn). *)

type predicate_stats = {
  triples : int;  (** number of triples with this predicate *)
  distinct_subjects : int;
  distinct_objects : int;
}

type stats_seed = {
  seed_subjects : int option;
  seed_objects : int option;
  seed_predicates : int option;
  seed_predicate : int -> predicate_stats option;
}
(** Save-time precomputed planner statistics of a compiled store;
    [seed_predicate] may answer [None] (falls back to a range scan),
    and the global distinct counts may be [None] when a delta overlay
    has invalidated the base store's figures (falls back to a one-shot
    counting scan over the merged views). *)

val of_graph : Rdf.Graph.t -> t

val of_views :
  identity:int ->
  dict:Rdf.Dictionary.t ->
  spo:flat_view -> pos:flat_view -> osp:flat_view ->
  ?stats:stats_seed -> unit -> t
(** A store over externally provided sorted index views (the mmap
    reader's constructor). [identity] is the store's stable identity —
    negative content-stamp-derived for disk stores, disjoint from the
    positive per-process {!Rdf.Graph.epoch} counter — and is what
    {!epoch} returns. The three views must enumerate the same triple
    multiset sorted by (s,p,o), (p,o,s) and (o,s,p) keys respectively;
    raises [Invalid_argument] if their lengths disagree. *)

val register : t -> unit
(** Pin a store into the {!of_graph_cached} resolution table under its
    {!epoch} identity, outside the MRU churn: a {!Rdf.Graph.deferred}
    handle carrying the same identity then evaluates against this store
    directly, never forcing its term-level decode. Re-registering the
    same identity replaces the entry (same content by construction). *)

val of_graph_cached : Rdf.Graph.t -> t
(** Like {!of_graph}, but resolved through the {!register}ed persistent
    stores first and then memoized on the graph's {!Rdf.Graph.epoch} in
    a small bounded MRU cache, so evaluators that encode the same graph
    for every (mapping, child) test pay the encoding cost once. *)

val epoch : t -> int
(** The store's identity: the {!Rdf.Graph.epoch} of the graph a heap
    store was encoded from, or the stable (negative) content-stamp
    identity of a loaded disk store ({!of_views}). *)

val clear_cache : unit -> unit
(** Drop every entry of the {!of_graph_cached} memo and the
    {!register}ed-store table (mainly for tests and benchmarks). Safe
    while evaluations are in flight on other threads: a
    dropped mmap'd store stays alive — and its file mapped — for as
    long as any live evaluation still holds it; a deferred graph handle
    resolved after the drop falls back to its (slow but exact)
    term-level decode. *)

val dictionary : t -> Rdf.Dictionary.t
val cardinal : t -> int

val mem : t -> int * int * int -> bool

val matching :
  t -> ?s:int -> ?p:int -> ?o:int -> unit -> (int * int * int) list
(** Triples (as id tuples) agreeing with every bound position. *)

val match_count : t -> ?s:int -> ?p:int -> ?o:int -> unit -> int
(** Cardinality of {!matching}; constant-ish time (two binary searches)
    for prefix-bound lookups. *)

val iter_matching :
  t -> ?s:int -> ?p:int -> ?o:int -> f:(int * int * int -> unit) -> unit -> unit

val nth_spo : t -> int -> int * int * int
(** The i-th raw (s, p, o) triple of the SPO permutation — positional
    access for the store writer (and tests); query code uses the
    matching API above. *)

val nth_pos : t -> int -> int * int * int
val nth_osp : t -> int -> int * int * int

(** {2 Planner statistics}

    Cardinality summaries for the cost-based optimizer, derived from the
    sorted index arrays and memoized on the store (stores are immutable).
    The first call per predicate costs a range scan; every later call is
    a hash lookup, so plan-time estimation is O(1) — and O(1) from the
    first call on compiled stores, which carry a {!stats_seed}.
    {!Rdf.Stats} remains the unencoded fallback for term-level
    consumers. *)

val predicate_stats : t -> int -> predicate_stats
(** Statistics of one predicate (by dictionary id). An id that never
    occurs as a predicate — including the negative absent-term sentinels —
    yields all-zero stats. *)

val distinct_subjects : t -> int
(** Distinct subject ids across the whole store (runs of the SPO array). *)

val distinct_objects : t -> int
(** Distinct object ids across the whole store (runs of the OSP array). *)

val distinct_predicates : t -> int
(** Distinct predicate ids across the whole store (runs of the POS
    array). *)
