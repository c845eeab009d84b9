open Relational

(** Bottom-up evaluation of Datalog programs over a finite structure (the
    EDB): the semi-naive least fixpoint, which restricts rule firings to
    those using at least one newly-derived fact.  Its differential
    reference, the naive fixpoint, is [Oracle.Naive_datalog] in the
    test-only [oracle] library.

    Variables that appear in a rule head but not in its body range over the
    whole universe of the input structure. *)

type stats = {
  rounds : int;  (** Fixpoint iterations until saturation. *)
  derived : int;  (** Total IDB facts derived. *)
}

val fixpoint_with_stats : Program.t -> Structure.t -> (string * Relation.t) list * stats
(** All IDB relations at the least fixpoint, with the evaluation counters. *)

val goal_relation : Program.t -> Structure.t -> Relation.t

val goal_holds : Program.t -> Structure.t -> bool
(** Whether the goal relation is nonempty (the Boolean answer for 0-ary
    goals). *)
