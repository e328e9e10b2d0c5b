(** Treewidth computation: one exact algorithm (exponential, for small
    graphs) and heuristic bounds.

    Every function accepts an optional [budget]; the exponential searches
    tick it at their loop heads and raise {!Resource.Budget.Exhausted}
    when it trips (the [?budget] convention all intentionally-exponential
    kernels of this codebase follow; see [docs/ROBUSTNESS.md]).

    Conventions: the empty graph has treewidth [-1]; a non-empty edgeless
    graph has treewidth [0]; trees have treewidth 1, cycles 2, the clique
    [K_k] has [k − 1], and the [k × k] grid has [k]. (The paper's
    convention of reporting 1 for edgeless Gaifman graphs is applied at the
    generalised-t-graph layer, not here.) *)

val min_fill_order : ?budget:Resource.Budget.t -> Ugraph.t -> int list * int
(** Min-fill elimination heuristic: the ordering and its width (an upper
    bound on treewidth). *)

val min_degree_order : ?budget:Resource.Budget.t -> Ugraph.t -> int list * int
(** Min-degree elimination heuristic. *)

val lower_bound : ?budget:Resource.Budget.t -> Ugraph.t -> int
(** The maximum-minimum-degree (degeneracy) lower bound. *)

val upper_bound : ?budget:Resource.Budget.t -> Ugraph.t -> int
(** The better of the two elimination heuristics. *)

val exact : ?budget:Resource.Budget.t -> ?limit:int -> Ugraph.t -> int option
(** Exact treewidth by branch and bound over elimination orderings
    (after Gogate & Dechter's QuickBB): the better heuristic order is the
    initial bound, simplicial vertices are eliminated without branching,
    and sets of remaining vertices are memoised. Worst case exponential
    in [n]; fast on dense graphs, slowest on sparse ones. Returns [None]
    when [Ugraph.n g > limit] (default 20). *)

val treewidth : ?budget:Resource.Budget.t -> ?exact_limit:int -> Ugraph.t -> int
(** Exact when [n ≤ exact_limit] (default 20); otherwise the heuristic
    upper bound. All query-derived graphs in this project are small enough
    for the exact path. *)

val is_at_most : ?budget:Resource.Budget.t -> Ugraph.t -> int -> bool
(** Decision procedure [tw(g) ≤ k], using bounds before falling back to
    the exact computation. *)

val decomposition : ?budget:Resource.Budget.t -> Ugraph.t -> Tree_decomposition.t
(** A tree decomposition of width exactly [treewidth g]: built from the
    optimal elimination order the branch and bound finds, so always
    optimal within the exact limit of 20 vertices; beyond it, from the
    better heuristic order, whose width is the upper bound [treewidth]
    returns there. *)
