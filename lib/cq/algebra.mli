open Relational

(** Select–Project–Join relational algebra.

    The paper's opening observation is that conjunctive queries have
    exactly the expressive power of SPJ algebra.  This module makes the
    equivalence executable: an algebra over named columns, a compiler from
    conjunctive queries to left-deep SPJ plans, and an evaluator whose
    results coincide with the homomorphism-based semantics. *)

type expr =
  | Relation of string * string array
      (** Base relation scan with column names for its positions. *)
  | Select of string * string * expr  (** Equality selection col = col. *)
  | Project of string list * expr  (** Keep the named columns, in order. *)
  | Join of expr * expr  (** Natural join on shared column names. *)
  | Rename of (string * string) list * expr  (** old/new column pairs. *)

type table = { columns : string array; rows : Tuple.t list }

val eval : Structure.t -> expr -> table
(** @raise Invalid_argument on unknown columns, arity mismatches or
    colliding names in a rename. *)

val plan_of_query : Query.t -> expr
(** Left-deep SPJ plan: scan each atom (renaming positions apart and
    selecting for repeated variables), join them naturally, and project to
    the head.
    @raise Invalid_argument if the query is unsafe (a head variable missing
    from the body) — SPJ plans cannot invent values. *)

val evaluate_query : Query.t -> Structure.t -> Tuple.t list
(** [eval] of [plan_of_query]; agrees with
    {!Containment.evaluate} on safe queries. *)
