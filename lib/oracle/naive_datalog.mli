(** Reference Datalog evaluation: the naive least fixpoint.

    Every round fires every rule against the whole current tables, with
    variables bound through association lists, until a round derives
    nothing new.  It shares no code with [Datalog.Eval]'s semi-naive
    engine; the test suites and bench A1 check that the two agree. *)

val fixpoint :
  Datalog.Program.t -> Relational.Structure.t -> (string * Relational.Relation.t) list
(** All IDB relations at the least fixpoint, in
    [Program.idb_predicates] order.  Head variables absent from the body
    range over the universe, as in [Datalog.Eval]. *)

val goal_holds : Datalog.Program.t -> Relational.Structure.t -> bool
(** Whether the goal relation is nonempty. *)
