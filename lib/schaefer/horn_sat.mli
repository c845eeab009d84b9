(** Linear-time Horn satisfiability by positive unit propagation
    (Dowling–Gallier / Beeri–Bernstein). *)

val solve : Cnf.t -> (bool array, int list) result
(** Least model of a satisfiable Horn formula (the propagation fixpoint),
    or the refutation propagation found: the indices (in [clauses]) of
    the clauses that forced a variable true, in propagation order, followed
    by the clause that all of them falsify.
    @raise Invalid_argument if the formula is not Horn. *)

val solve_dual : Cnf.t -> (bool array, int list) result
(** Same for dual Horn formulas, via the sign-flip duality: the model is
    the greatest one, and each forcing clause sets a variable false.
    @raise Invalid_argument if the formula is not dual Horn. *)
