(** Reference 2-SAT: the Lewis–Papadimitriou phase propagation that the
    paper emulates in its direct bijunctive algorithm (Theorem 3.4).

    Pick an unassigned variable, guess a value, propagate; on conflict
    undo and try the other value; fail only if both guesses conflict.
    The test suites and bench A1 check [Schaefer.Two_sat.solve], the
    strongly-connected-components algorithm production runs, against
    it. *)

val solve : Schaefer.Cnf.t -> bool array option
(** A model, or [None] when the formula is unsatisfiable.
    @raise Invalid_argument if a clause has more than two literals. *)
