open Relational

(** Least fixed-point logic: systems of simultaneous positive first-order
    definitions, evaluated by stage iteration (Section 4).

    A system defines relation symbols [S_1, ..., S_l] by formulas in which
    they occur only positively; the stages converge to the least fixed
    point in polynomially many rounds.  This realizes the LFP sentence of
    Theorem 4.7(1) directly. *)

type definition = {
  name : string;  (** The defined (IDB) relation symbol. *)
  vars : string array;  (** Parameter variables; the arity. *)
  body : Formula.t;  (** May mention every defined symbol, positively. *)
}

type t = { definitions : definition list }

val make : definition list -> t
(** @raise Invalid_argument on duplicate names, free variables of a body
    outside its parameters, or a defined symbol occurring under an odd
    number of negations. *)

type stats = { stages : int }

val fixpoint_with_stats : Structure.t -> t -> (string * Relation.t) list * stats
(** The least fixed point of the system over the given structure, with
    the number of stages it took. *)

val holds : Structure.t -> t -> Formula.t -> bool
(** Truth of a sentence evaluated over the structure extended with the
    fixpoint relations. *)
