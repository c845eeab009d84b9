open Relational

(** Conjunctive-query containment, evaluation and minimization.

    Containment is decided by the Chandra–Merlin homomorphism criterion:
    [Q1 ⊆ Q2] iff there is a homomorphism [D_{Q2} -> D_{Q1}] between the
    canonical databases (Theorem 2.1). *)

val contained : Query.t -> Query.t -> bool
(** [contained q1 q2] decides [q1 ⊆ q2].
    @raise Invalid_argument when head arities differ. *)

val containment_witness : Query.t -> Query.t -> (string * string) list option
(** The witnessing variable mapping (variables of [q2] to variables of
    [q1]), when containment holds. *)

val witness_names :
  Query.t -> Query.t -> Homomorphism.mapping -> (string * string) list
(** Name a homomorphism [D_{Q2} -> D_{Q1}] (such as a solver's [Sat]
    witness for [q1 ⊆ q2]) through the canonical-database indexes: each
    variable of [q2] paired with the variable of [q1] it maps to. *)

val contained_via_evaluation : Query.t -> Query.t -> bool
(** The second characterization of Theorem 2.1: evaluate [q2] over the
    frozen body of [q1] and test whether the frozen head tuple is in the
    answer.  Must agree with {!contained}; exposed for cross-validation. *)

val equivalent : Query.t -> Query.t -> bool

val evaluate : Query.t -> Structure.t -> Tuple.t list
(** [Q(D)]: the answer relation, as tuples of elements of [D], sorted. *)

val minimize : Query.t -> Query.t
(** An equivalent query with the minimum number of body atoms, obtained as
    the core of the canonical database.  Variable names of surviving atoms
    are inherited from the input. *)

val contained_two_atom : Query.t -> Query.t -> bool
(** Saraiya's tractable case via Booleanization (Proposition 3.6): decides
    [q1 ⊆ q2] in polynomial time when every predicate occurs at most twice
    in the body of [q1].
    @raise Invalid_argument if [q1] is not a two-atom query or head arities
    differ. *)
