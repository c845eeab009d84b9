(** Reference arc consistency: the rescan-and-revise fixpoint.

    Every revision of a tuple-constraint of [A] rescans the whole target
    relation of [B] — [O(removals * ||B||)] worst case — with none of
    {!Relational.Arc_consistency}'s support counters or trail.  The
    arc-consistent closure is unique, so the two must agree domain for
    domain; [Testkit.Selfcheck] and the test suites compare them, and bench
    E16 times this engine as the naive baseline. *)

val closure :
  restrict:(int -> int -> bool) ->
  Relational.Structure.t ->
  Relational.Structure.t ->
  int list array option
(** [closure ~restrict a b]: the greatest arc-consistent domains inside
    [{v | restrict x v}] for each element [x] of [a], each sorted
    ascending; [None] on a wipeout.  Symbols of [A]'s vocabulary missing
    from [B] (or carried with a different arity) are empty relations of
    [B]. *)
