open Relational

(** Conjunctive queries, written as rules

    {[ Q(X1, ..., Xn) :- P(X1, Z), R(Z, X2), ... ]}

    The head lists the distinguished variables (in order); the body is a
    conjunction of atoms over extensional predicates. *)

type atom = { pred : string; args : string array }

type t = {
  head_pred : string;  (** Name of the defined predicate, e.g. ["Q"]. *)
  head : string array;  (** Distinguished variables, in order. *)
  body : atom list;
}

val make : ?head_pred:string -> head:string list -> (string * string list) list -> t
(** [make ~head body] with body atoms as [(predicate, arguments)].
    @raise Invalid_argument if a predicate occurs with two arities or a
    predicate name collides with the reserved distinguished-variable
    prefix. *)

val arity : t -> int
(** Number of distinguished variables. *)

val variables : t -> string list
(** All variables, head first, in first-occurrence order. *)

val existential_variables : t -> string list
(** Body variables that are not distinguished. *)

val body_vocabulary : t -> Vocabulary.t
(** Predicates of the body with their arities. *)

val atom_count : t -> int

val is_two_atom : t -> bool
(** Every predicate occurs at most twice in the body (Saraiya's class). *)

val is_safe : t -> bool
(** Every distinguished variable occurs in the body. *)

val norm : t -> int
(** Size measure [||Q||]: number of variables plus total argument count. *)

val rename_variables : (string -> string) -> t -> t
(** Apply a variable renaming verbatim to head and body.  A non-injective
    renaming yields the query with the corresponding variables
    identified. *)

val equal : t -> t -> bool
(** Syntactic equality up to atom order. *)

val pp : Format.formatter -> t -> unit

val to_string : t -> string
