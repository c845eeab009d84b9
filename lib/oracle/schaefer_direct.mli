(** Reference Schaefer engines: the direct algorithms of Theorem 3.4.

    They skip formula construction and propagate on the structures
    themselves.  Production decides Boolean Schaefer targets with the
    formula pass of Theorem 3.3 ([Schaefer.Uniform.solve]), which also
    refutes; the test suites, [Testkit.Selfcheck] and bench E3 check it
    against these engines.  Each honours an optional [?budget], ticked
    once per fact processed or propagation step. *)

type outcome =
  | Hom of Relational.Homomorphism.mapping
  | No_hom
  | Not_applicable of string
      (** Target not Boolean, arities clash, not Schaefer, or affine (the
          paper gives no direct affine algorithm). *)

val solve :
  ?budget:Relational.Budget.t -> Relational.Structure.t -> Relational.Structure.t -> outcome
(** Classify [B] and run its class's direct algorithm; a 0- or 1-valid
    target takes the constant map when it is a homomorphism. *)

val solve_horn :
  ?budget:Relational.Budget.t ->
  Relational.Structure.t ->
  Relational.Structure.t ->
  Relational.Homomorphism.mapping option
(** Grow the set [One] of elements forced to 1 by the implications
    [One(t) -> j] of the target relations, then check each fact is
    dominated by some target tuple.  Precondition (unchecked): [b] is a
    Boolean structure whose relations are all Horn. *)

val solve_dual_horn :
  ?budget:Relational.Budget.t ->
  Relational.Structure.t ->
  Relational.Structure.t ->
  Relational.Homomorphism.mapping option
(** Mirror of {!solve_horn} under the 0/1 flip.  Precondition
    (unchecked): all relations of [b] dual Horn. *)

val solve_bijunctive :
  ?budget:Relational.Budget.t ->
  Relational.Structure.t ->
  Relational.Structure.t ->
  Relational.Homomorphism.mapping option
(** Phase propagation lifted to structures.  Precondition (unchecked):
    all relations of [b] bijunctive.
    @raise Invalid_argument if propagation ends in a non-homomorphism. *)
