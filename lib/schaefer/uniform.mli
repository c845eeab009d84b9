open Relational

(** Uniform polynomial-time constraint satisfaction for Schaefer targets.

    [solve] implements Theorem 3.3: classify the Boolean target [B], build
    the instantiated formula [phi_A] and run the dedicated satisfiability
    algorithm (Horn-SAT, dual-Horn-SAT, 2-SAT, or GF(2) elimination).  The
    pass that decides also refutes: each clause and equation of [phi_A]
    remembers the fact of [A] it instantiates, so a "no" comes back with a
    certificate for [Certificate.check].

    The direct propagators of Theorem 3.4 are reference engines, kept in
    the test-only [oracle] library as [Oracle.Schaefer_direct].

    The pass is polynomial, but on large instances it still honours an
    optional [?budget] (ticked once per fact processed and per GF(2)
    reduction step), raising [Budget.Exhausted] on exhaustion. *)

type outcome =
  | Hom of Homomorphism.mapping
  | No_hom of Certificate.t
  | Not_applicable of string
      (** Target not Boolean, vocabulary mismatch, or not Schaefer. *)

val solve : ?budget:Budget.t -> Structure.t -> Structure.t -> outcome
(** Theorem 3.3 in one pass.  A "no" carries its certificate: an
    [Empty_relation] fact if there is one (tried first, before [B]'s class
    matters), else the refutation the class's algorithm found — a
    unit-propagation trace (Horn, dual Horn), an implication cycle
    (bijunctive), or GF(2) equations summing to [0 = 1] (affine). *)

val empty_relation_refutation : Structure.t -> Structure.t -> Certificate.t option
(** A fact of [A] whose symbol has an empty, absent or arity-clashing
    relation in [B]: the cheapest refutation, for any target. *)

val arity_mismatch : Structure.t -> Structure.t -> bool
(** Some symbol has different arities in the two vocabularies; {!solve}
    answers [Not_applicable].  Booleanization scales every arity by the
    same factor, so an encoded pair reads the same. *)
