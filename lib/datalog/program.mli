(** Datalog programs: finite sets of rules

    {[ t0 :- t1, ..., tm ]}

    where each [ti] is an atom over variables.  Predicates occurring in some
    rule head are intensional (IDB); all others are extensional (EDB).  One
    IDB predicate is designated as the goal.

    Rules whose head mentions variables absent from the body ("unsafe"
    rules) are permitted; evaluation ranges such variables over the
    universe of the input structure.  The canonical game programs of
    Theorem 4.7 need this. *)

type atom = { pred : string; args : string array }

type rule = { head : atom; body : atom list }

type t = { rules : rule list; goal : string }

val make : goal:string -> rule list -> t
(** @raise Invalid_argument if a predicate is used with two arities, or the
    goal is not an IDB predicate. *)

val atom : string -> string list -> atom

val rule : atom -> atom list -> rule

val idb_predicates : t -> string list
(** In first-appearance order. *)

val predicate_arity : t -> string -> int
(** @raise Not_found for unknown predicates. *)

val rule_variables : rule -> string list
(** Distinct variables of head and body, in first-occurrence order. *)

val body_variables : rule -> string list

val head_variables : rule -> string list

val is_k_datalog : int -> t -> bool
(** Every rule has at most [k] distinct body variables and at most [k]
    distinct head variables (Section 4). *)

val width : t -> int
(** The least [k] such that the program is k-Datalog. *)
