open Relational

(** Bottom-up evaluation of first-order formulas on finite structures.

    Intermediate results are tables of assignments over the subformula's
    free variables, so a formula of width k costs at most [n^k] rows per
    node — polynomial combined complexity for bounded-variable formulas
    (FO^k), per Section 5. *)

type table = {
  vars : string array;  (** Column names. *)
  rows : Tuple.t list;  (** Assignments, one value per column. *)
}

val eval : Structure.t -> Formula.t -> table
(** The set of satisfying assignments over the formula's free variables.
    Missing relation symbols denote empty relations. *)

val holds : Structure.t -> Formula.t -> bool
(** Truth of a sentence. @raise Invalid_argument on free variables. *)
