(** Polymorphisms of Boolean relations: the algebraic view of tractability
    that the paper's concluding remarks point to (Jeavons et al.).

    An operation [f : {0,1}^r -> {0,1}] is a polymorphism of a relation [R]
    when applying [f] componentwise to any [r] tuples of [R] lands back in
    [R].  Schaefer's classes are exactly the relations preserved by
    particular operations: constants (0/1-validity), AND (Horn), OR (dual
    Horn), the ternary majority (bijunctive), and the ternary XOR/minority
    (affine). *)

type operation = {
  name : string;
  arity : int;
  table : int array;  (** [table.(m)] is the value on the argument tuple
                          encoded by mask [m]; length [2^arity]. *)
}

val apply : operation -> int list -> int
(** @raise Invalid_argument on an argument-count mismatch or non-0/1
    arguments. *)

(* The named operations behind Schaefer's classes. *)

val and2 : operation

val or2 : operation

val majority3 : operation

val minority3 : operation
(** x XOR y XOR z. *)

val projection : arity:int -> int -> operation

val negation : operation

val preserves : operation -> Boolean_relation.t -> bool
(** Is the operation a polymorphism of the relation? *)

val preserves_structure : operation -> Relational.Structure.t -> bool
(** Polymorphism of every relation of a Boolean structure. *)

val polymorphisms : arity:int -> Boolean_relation.t -> operation list
(** All [2^(2^arity)] candidate operations of the given arity that preserve
    the relation.  Keep [arity <= 3]. *)

val classes_via_polymorphisms : Boolean_relation.t -> Classify.schaefer_class list
(** Schaefer classes read off the named polymorphisms; must agree with
    {!Classify.relation_classes}. *)
