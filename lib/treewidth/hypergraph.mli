open Relational

(** Acyclic structures (querywidth 1, Section 5 discussion) and the
    Yannakakis semi-join algorithm.

    A structure is acyclic when the GYO reduction of its hypergraph of facts
    succeeds; acyclic sources admit a linear-time homomorphism test by
    bottom-up semi-joins over a join forest — the Yannakakis algorithm that
    the bounded-querywidth results generalize. *)

type join_forest = {
  facts : (string * Tuple.t) array;  (** One node per fact of the source. *)
  parent : int array;  (** Parent index in the forest, or [-1] for roots. *)
}

val join_forest : Structure.t -> join_forest option
(** [None] when the structure's hypergraph is cyclic. *)

val is_acyclic : Structure.t -> bool

val solve_acyclic : Structure.t -> Structure.t -> Homomorphism.mapping option
(** Yannakakis: the {!Join_eval} first-row pass over the join forest,
    then top-down extraction.
    @raise Invalid_argument if the source is not acyclic. *)

val solve_with_forest :
  ?budget:Budget.t ->
  join_forest ->
  Structure.t ->
  Structure.t ->
  Homomorphism.mapping option
(** {!solve_acyclic} over a join forest of the source already in hand.
    Charges [budget] one tick per fact (one semi-join each) before the
    pass.
    @raise Budget.Exhausted when it runs out. *)

val generalized_hypertree_width_upper : Structure.t -> int
(** Upper bound on the generalized hypertree width (Gottlob–Leone–Scarcello,
    discussed in Section 5): cover each bag of a min-fill tree decomposition
    of the Gaifman graph with as few hyperedges (facts) as possible and take
    the worst bag.  A single wide fact gets 1 where its treewidth is
    arity-1; treewidth k bounds it by k+1.  (Exact hypertree width is out of
    scope — see DESIGN.md.) *)
