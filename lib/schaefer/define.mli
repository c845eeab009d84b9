(** Defining formulas for nontrivial Schaefer relations (Theorem 3.2).

    For a relation [R] in one of the four nontrivial Schaefer classes, these
    constructors produce a formula [phi_R] over variables [p_0 .. p_{k-1}]
    with [models(phi_R) = R], in polynomial time:

    - Horn / dual Horn: a Horn (resp. dual Horn) CNF built from the closure
      lattice of the relation's one-sets (after Dechter–Pearl);
    - bijunctive: the conjunction of all 1- and 2-clauses satisfied by [R];
    - affine: a linear system over GF(2) from a basis of the nullspace of
      the augmented tuple matrix. *)

type t =
  | Clausal of Cnf.t
  | Linear of Gf2.system

val horn_formula : Boolean_relation.t -> Cnf.t
(** @raise Invalid_argument if the relation is not Horn (AND-closed). *)

val dual_horn_formula : Boolean_relation.t -> Cnf.t
(** @raise Invalid_argument if the relation is not dual Horn (OR-closed). *)

val bijunctive_formula : Boolean_relation.t -> Cnf.t
(** @raise Invalid_argument if the relation is not bijunctive
    (majority-closed). *)

val affine_system : Boolean_relation.t -> Gf2.system
(** @raise Invalid_argument if the relation is not affine (XOR3-closed). *)

val defining : Boolean_relation.t -> Classify.schaefer_class -> t
(** Dispatch on the four nontrivial classes.
    @raise Invalid_argument on [Zero_valid] / [One_valid] (no formula is
    needed there) or when the relation is outside the requested class. *)
