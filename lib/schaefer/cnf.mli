(** Propositional CNF formulas over variables [0 .. nvars-1]. *)

type literal = { var : int; sign : bool }
(** [sign = true] is the positive literal. *)

type clause = literal list

type t = { nvars : int; clauses : clause list }

val pos : int -> literal

val neg : int -> literal

val make : nvars:int -> clause list -> t
(** @raise Invalid_argument if a variable is out of range. *)

val size : t -> int
(** Total number of literal occurrences. *)

val is_horn : t -> bool
(** At most one positive literal per clause. *)

val is_dual_horn : t -> bool

val is_two_cnf : t -> bool
(** At most two literals per clause. *)

val flip_signs : t -> t
(** Negate every literal (maps Horn to dual Horn and back; a 0/1 assignment
    satisfies the flipped formula iff its complement satisfies the
    original). *)

val pp : Format.formatter -> t -> unit
