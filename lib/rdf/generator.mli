(** Deterministic synthetic RDF graph generators.

    All generators are pure functions of their parameters (randomised ones
    take an explicit [seed]), so benchmark and test workloads are
    reproducible. Node IRIs are of the form [<node prefix>:<index>]. *)

val node : ?prefix:string -> int -> Term.t
(** [node i] is the IRI term for the [i]-th generated node. *)

val pred : string -> Term.t
(** [pred name] is the predicate IRI [p:name]. *)

val path : n:int -> pred:string -> Graph.t
(** Directed path [0 → 1 → ⋯ → n−1]. *)

val cycle : n:int -> pred:string -> Graph.t
(** Directed cycle on [n] nodes. *)

val grid : rows:int -> cols:int -> pred:string -> Graph.t
(** Directed grid: edges right and down. *)

val star : n:int -> pred:string -> Graph.t
(** Centre node [0] with edges to leaves [1..n]. *)

val transitive_tournament : n:int -> pred:string -> Graph.t
(** All edges [i → j] for [i < j]: the ground instance of the paper's
    clique pattern [K_k(?o1..?ok)] from Example 3. *)

val random_digraph : seed:int -> n:int -> m:int -> pred:string -> Graph.t
(** [m] distinct uniformly random non-loop edges over [n] nodes. *)

val random_graph :
  seed:int -> n:int -> predicates:string list -> m:int -> Graph.t
(** [m] random triples with predicates drawn from [predicates]. *)

val zipf :
  seed:int -> n:int -> predicates:string list -> m:int ->
  ?exponent:float -> unit -> Graph.t
(** [m] random triples over [n] nodes whose subject, object, and
    predicate choices are Zipf-distributed ([exponent] defaults to 1.0;
    0 recovers the uniform {!random_graph}): node [0] is the heaviest
    hub, early predicates dominate. The resulting per-predicate
    cardinalities and distinct-count profiles are heavily skewed — the
    workload where a cost-based join order diverges most from a uniform
    guess (the optimizer's skewed-join tests). *)

val social : seed:int -> people:int -> Graph.t
(** A synthetic social network: people with [knows] edges (preferential
    attachment flavour), employers via [worksAt], cities via [livesIn],
    and partial [email] self-descriptions — the kind of irregular,
    optional-field data OPTIONAL queries are motivated by. Predicates are
    [p:knows], [p:worksAt], [p:livesIn], [p:email], [p:type]. *)
