(** 2-SAT: the classical linear-time algorithm via strongly connected
    components of the implication graph.  Its differential reference, the
    Lewis–Papadimitriou phase propagation the paper emulates in its direct
    bijunctive algorithm (Theorem 3.4), is [Oracle.Two_sat_phase] in the
    test-only [oracle] library. *)

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

