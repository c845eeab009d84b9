(** 2-SAT solvers.

    [solve] is the classical linear-time algorithm via strongly connected
    components of the implication graph.  [solve_phase] is the
    phase-propagation algorithm from Lewis–Papadimitriou that the paper
    emulates in its direct bijunctive algorithm (Theorem 3.4): pick an
    unassigned variable, guess a value, propagate; on conflict undo and try
    the other value; fail only if both guesses conflict. *)

type refutation = {
  pivot : Cnf.literal;
  forward : (int * Cnf.literal) list;  (** [pivot => ... => not pivot]. *)
  backward : (int * Cnf.literal) list;  (** [not pivot => ... => pivot]. *)
}
(** An unsatisfiable 2-CNF's implication cycle.  A step [(k, l)] follows
    the edge of clause [k] (an index in [clauses]) into literal [l]: the
    clause is [not l' \/ l] for the previous literal [l'], or the unit
    clause [l]. *)

val solve : Cnf.t -> (bool array, refutation) result
(** A model, or the implication cycle through the first variable whose two
    literals share a strongly connected component.
    @raise Invalid_argument if a clause is empty or has more than two
    literals. *)

val solve_phase : Cnf.t -> bool array option
(** @raise Invalid_argument if a clause has more than two literals. *)
