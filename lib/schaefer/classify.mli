open Relational

(** Schaefer's classification of Boolean relations and structures
    (Theorem 3.1).

    A Boolean relation belongs to a tractable Schaefer class exactly when it
    passes the corresponding closure test:
    - 0-valid: contains the all-zero tuple;
    - 1-valid: contains the all-one tuple;
    - Horn: closed under componentwise AND (Dechter–Pearl);
    - dual Horn: closed under componentwise OR;
    - bijunctive: closed under componentwise majority;
    - affine: closed under componentwise XOR of triples.

    A Boolean structure is a Schaefer structure when some single class
    contains all of its relations. *)

type schaefer_class =
  | Zero_valid
  | One_valid
  | Horn
  | Dual_horn
  | Bijunctive
  | Affine

val all_classes : schaefer_class list

val class_name : schaefer_class -> string

val relation_in_class : Boolean_relation.t -> schaefer_class -> bool
(** The one closure test of the class, run on the relation. *)

val relation_classes : Boolean_relation.t -> schaefer_class list
(** All classes the relation belongs to, in the order of {!all_classes}.
    Computed from the relation on every call: nothing is kept between
    calls, so equal relations always get equal answers. *)

val boolean_relations : Structure.t -> (string * Boolean_relation.t) list
(** @raise Invalid_argument if the structure is not Boolean (universe of
    size other than 2). *)

val structure_classes : Structure.t -> schaefer_class list
(** Classes containing {e every} relation of the structure.
    @raise Invalid_argument if the structure is not Boolean. *)

val classify : Structure.t -> schaefer_class option
(** Preferred class for solving: trivial classes first, then bijunctive,
    Horn, dual Horn, affine.  [None] when the structure is not Schaefer. *)
