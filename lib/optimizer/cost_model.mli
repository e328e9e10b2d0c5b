(** Cardinality estimation over the encoded store's real statistics.

    The cost unit is "expected number of triples matching one pattern",
    estimated in O(1) from the store's sorted-range counts
    ({!Encoded.Encoded_graph.match_count}) and memoized per-predicate
    distinct-value counts ({!Encoded.Encoded_graph.predicate_stats}) —
    no sampling, no regexes, real cardinalities. The estimator is
    backend-blind: the statistics may come from a heap encode, a mapped
    store's precomputed [pstats] rows, or a base-plus-segments overlay
    (rows patched incrementally per delta) — [lib/storage] keeps all of
    them exact, and the differential suites assert it, so the planner never
    degrades on a composed source. *)

val estimate :
  Encoded.Encoded_graph.t ->
  bound:(int -> bool) ->
  Encoded.Encoded_hom.pterm
  * Encoded.Encoded_hom.pterm
  * Encoded.Encoded_hom.pterm ->
  float
(** Estimated number of triples matching the pattern when the variable
    slots selected by [bound] hold (unknown) values: the exact range
    count over the constant positions, scaled by an independence-assuming
    selectivity factor per bound-variable position (1/distinct-subjects
    of the predicate for a bound subject, 1/distinct-objects for a bound
    object, 1/distinct-predicates for a bound predicate position).

    Always nonnegative, and monotone under binding: if [bound'] selects a
    superset of [bound], the estimate under [bound'] is no larger (both
    property-tested). *)
