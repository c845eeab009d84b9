(** Reference existential k-pebble game: the sorted-assoc-list engine.

    Generates every partial homomorphism with at most [k] pebbles into a
    hash set, then deletes configurations that lack the forth property,
    cascading removals to supersets and rechecking restrictions.  It
    computes the same greatest fixpoint as [Pebble.Game.run], which
    [Testkit.Selfcheck] and the test suites check configuration for
    configuration; bench E17 times it as the naive baseline. *)

type config = (int * int) list
(** Pairs [(a, b)] sorted by [a], as in [Pebble.Game.config]. *)

val family :
  budget:Relational.Budget.t ->
  k:int ->
  Relational.Structure.t ->
  Relational.Structure.t ->
  config list * (config * int) list
(** [family ~budget ~k a b]: the winning family (in no particular order,
    empty when the Spoiler wins) and the chronological log of
    forth-property failures [(config, x)].  [budget] is ticked once per
    candidate mapping and per propagation step.
    @raise Relational.Budget.Exhausted when [budget] runs out. *)
