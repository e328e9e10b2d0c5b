(** Domination width (Definitions 1 and 2) — the paper's new width measure,
    which characterises the polynomial-time evaluable classes of
    well-designed patterns (Theorem 3).

    For each subtree [T] of the forest, [GtG(T)] must be [k]-dominated:
    its members of [ctw ≤ k] must homomorphically dominate the rest. The
    domination width is the least such [k] working for every subtree.

    The level of a family is decided lazily, for [k = 1, 2, …]. A member
    whose polynomial treewidth bound ({!Tgraphs.Gtgraph.tw_upper}) is
    [≤ k] has [ctw ≤ k] without a core, and every member it maps into is
    dominated. Only the members neither test settles have their core
    computed ({!Tgraphs.Cores.ctw}), once each; homomorphism tests are
    memoised too. So [dw(F_k) = 1] (Example 5) costs no core at all,
    while the worst case stays exponential in the query size (the
    recognition problem has a Πᵖ₂ upper bound and is NP-hard already for
    UNION-free patterns, Section 5).

    The result is exactly the least [k] of Definition 2 whenever every
    member's Gaifman graph is within the 20-vertex exact limit of
    {!Graphtheory.Treewidth.treewidth} (its branch and bound). Beyond
    it, it is an upper bound on the domination width, which is all
    Theorem 1 needs. *)

open Tgraphs

val dominated_at : ?budget:Resource.Budget.t -> Gtgraph.t list -> int -> bool
(** [dominated_at g k]: is the family [k]-dominated? *)

val domination_level : ?budget:Resource.Budget.t -> Gtgraph.t list -> int
(** The least [k ≥ 1] at which the family is [k]-dominated, found by the
    lazy test above. *)

val of_subtree :
  ?budget:Resource.Budget.t -> Wdpt.Pattern_forest.t -> Wdpt.Subtree.t -> int
(** [domination_level (GtG T)]. *)

val of_forest : ?budget:Resource.Budget.t -> Wdpt.Pattern_forest.t -> int
(** [dw(F)]: maximum over all subtrees of all trees. Always ≥ 1. *)

val at_most : ?budget:Resource.Budget.t -> Wdpt.Pattern_forest.t -> int -> bool
(** [at_most f k] decides [dw(f) ≤ k] — the recognition problem of
    Section 5 — short-circuiting on the first subtree whose [GtG] is not
    [k]-dominated, which is much cheaper than computing [dw] exactly when
    the answer is negative. *)

val of_pattern : ?budget:Resource.Budget.t -> Sparql.Algebra.t -> int
(** [dw(P) = dw(wdpf(P))].
    Raises {!Wdpt.Translate.Not_well_designed} if not well-designed. *)

val cheap_upper_bound : Wdpt.Pattern_forest.t -> int
(** A polynomial-time conservative bound on [dw(F)]: the heuristic
    treewidth upper bound of each tree's full Gaifman graph (dw ≤ max
    member ctw ≤ max member tw ≤ this). The degradation target when
    {!of_forest} exhausts its budget — running the pebble algorithm at
    this [k] is still exact, only more expensive than at the true dw. *)

type profile = {
  subtree_members : int list;  (** node ids of the subtree *)
  tree_index : int;  (** which tree of the forest it lives in *)
  gtg_ctws : int list;  (** [ctw] of each member of [GtG(T)] *)
  level : int;  (** least [k] at which [GtG(T)] is k-dominated *)
}

val profile : ?budget:Resource.Budget.t -> Wdpt.Pattern_forest.t -> profile list
(** Per-subtree diagnostics, used by the width-landscape experiment. *)
