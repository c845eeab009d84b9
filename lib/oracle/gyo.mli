(** Reference GYO reduction: the quadratic full scan.

    Each round (a) deletes vertices private to one live hyperedge, then
    (b) visits the live hyperedges in index order and folds each into
    the lowest-index other live hyperedge containing it, scanning every
    hyperedge for the container.  [Treewidth.Hypergraph.join_forest]
    finds the same containers through a vertex index; the test suites
    check the two return the same forest. *)

val join_forest :
  Relational.Structure.t ->
  ((string * Relational.Tuple.t) array * int array) option
(** The facts of the structure in [Structure.fold_tuples] order, reversed
    (the order [Hypergraph.join_forest] numbers them in), and the parent
    of each in the join forest ([-1] for a root); [None] when the
    hypergraph is cyclic. *)
