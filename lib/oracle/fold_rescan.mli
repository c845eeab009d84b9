(** Reference dominated-element folding: the rescan-and-copy fixpoint.

    Scan the elements top-down for the first [x] with a [y] it folds onto
    ({!Relational.Homomorphism.folds_onto}, candidates ascending), drop
    [x] by taking the induced substructure on the rest, and rescan the
    copy from the top — one induced copy and one full rescan per fold.
    [Preprocess.fold_stage] walks a live set over the input's own
    indexes instead and must pick the same folds in the same order; the
    test suite compares the two. *)

val run :
  budget:Relational.Budget.t ->
  Relational.Structure.t ->
  Relational.Structure.t * int array * int array * int * bool
(** [run ~budget a] is [(shrunk, fold, embed, folded, bailed)]: [fold]
    maps [a] onto [shrunk], [embed] includes [shrunk] back, [folded]
    elements were dropped, and [bailed] tells whether the budget ran out
    (one tick per domination test; the last completed fold is kept). *)
