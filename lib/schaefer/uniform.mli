open Relational

(** Uniform polynomial-time constraint satisfaction for Schaefer targets.

    [solve] implements Theorem 3.3: classify the Boolean target [B], build
    the instantiated formula [phi_A] and run the dedicated satisfiability
    algorithm (Horn-SAT, dual-Horn-SAT, 2-SAT, or GF(2) elimination).
    [refute] is the same pass keeping the refutation the algorithm found
    when it says "no" (each clause and equation of [phi_A] remembers the
    fact of [A] it instantiates), as a certificate for
    [Certificate.check].

    [solve_direct] implements Theorem 3.4: skip formula construction and run
    the direct propagation algorithms on the structures themselves (the
    affine case, for which the paper gives no direct algorithm, falls back
    to the formula route).

    All routes are polynomial, but on large instances they still honour an
    optional [?budget] (ticked once per fact processed, propagation step
    or GF(2) reduction step), raising [Budget.Exhausted] on
    exhaustion. *)

type outcome =
  | Hom of Homomorphism.mapping
  | No_hom
  | Not_applicable of string
      (** Target not Boolean, vocabulary mismatch, or not Schaefer. *)

val build_formula :
  ?budget:Budget.t ->
  Structure.t ->
  Structure.t ->
  Classify.schaefer_class ->
  Define.t * Certificate.origin array
(** [build_formula a b cls] is [phi_A]: the conjunction, over all facts
    [t ∈ Q^A], of the defining formula of [Q^B] instantiated on the elements
    of [t].  Variables are the elements of [A].  The array gives, for each
    clause or equation in order, the fact it instantiates.
    @raise Invalid_argument on trivial classes or if some relation of [B] is
    outside [cls]. *)

val solve : ?budget:Budget.t -> Structure.t -> Structure.t -> outcome
(** Theorem 3.3 (formula route). *)

val refute : ?budget:Budget.t -> Structure.t -> Structure.t -> Certificate.t option
(** A certificate for "no homomorphism" from the {!solve} pass: an
    [Empty_relation] fact if there is one (tried first), else a
    unit-propagation trace (Horn, dual Horn), an implication cycle
    (bijunctive), or GF(2) equations summing to [0 = 1] (affine).  [None]
    when the pass finds a homomorphism or does not apply. *)

val empty_relation_refutation : Structure.t -> Structure.t -> Certificate.t option
(** A fact of [A] whose symbol has an empty, absent or arity-clashing
    relation in [B]: the cheapest refutation, for any target. *)

val precheck : Structure.t -> Structure.t -> outcome option
(** The answer read off the vocabularies, before [B]'s class matters:
    [Not_applicable] when a symbol's arities differ, [No_hom] when [A] uses
    a symbol [B] lacks or has a nullary fact [B] lacks.  Booleanization
    keeps all three, so an encoded pair reads the same. *)

val solve_direct : ?budget:Budget.t -> Structure.t -> Structure.t -> outcome
(** Theorem 3.4 (direct route). *)

val solve_horn_direct :
  ?budget:Budget.t -> Structure.t -> Structure.t -> Homomorphism.mapping option
(** Direct Horn algorithm: grow the set [One] of elements forced to 1 by the
    implications [One(t) -> j] of the target relations, then check each fact
    is dominated by some target tuple.  Precondition (unchecked): [b] is a
    Boolean structure whose relations are all Horn. *)

val solve_dual_horn_direct :
  ?budget:Budget.t -> Structure.t -> Structure.t -> Homomorphism.mapping option
(** Mirror of the Horn algorithm under the 0/1 flip.  Precondition
    (unchecked): all relations of [b] dual Horn. *)

val solve_bijunctive_direct :
  ?budget:Budget.t -> Structure.t -> Structure.t -> Homomorphism.mapping option
(** Phase propagation lifted to structures, as in the paper's Theorem 3.4.
    Precondition (unchecked): all relations of [b] bijunctive. *)
