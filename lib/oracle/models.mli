(** Exhaustive model enumeration for CNF formulas and GF(2) systems: the
    references the Schaefer tests hold the formula pass, the defining
    formulas and the solvers against.  Both enumerate all [2^nvars]
    assignments.
    @raise Invalid_argument when [nvars > 22]. *)

val satisfies_cnf : bool array -> Schaefer.Cnf.t -> bool

val satisfies_gf2 : bool array -> Schaefer.Gf2.system -> bool

val cnf : Schaefer.Cnf.t -> bool array list
(** All satisfying assignments, in increasing order of their bit masks. *)

val gf2 : Schaefer.Gf2.system -> bool array list
(** All solutions, in increasing order of their bit masks. *)
