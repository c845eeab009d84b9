(** First-order formulas over a relational vocabulary, with the
    bounded-variable fragments FO^k and ∃FO^k of Sections 4 and 5.

    The width of a formula is the number of distinct variable names it uses;
    a formula of width k lies in FO^k.  Bounded-variable formulas are
    evaluated in polynomial time (Vardi), which is what makes the
    treewidth-to-FO^{k+1} translation of Lemma 5.2 an algorithm. *)

type t =
  | True
  | False
  | Atom of string * string array
  | Equal of string * string
  | Not of t
  | And of t list
  | Or of t list
  | Exists of string * t
  | Forall of string * t

val free_variables : t -> string list
(** In first-occurrence order. *)

val width : t -> int
(** Number of distinct variable names: the k of FO^k. *)

val is_sentence : t -> bool

val is_existential_positive : t -> bool
(** Built from atoms and equalities by conjunction, disjunction and
    existential quantification only (the ∃FO^k fragment). *)

val conj : t list -> t
(** Conjunction, flattening [True] and short-circuiting [False]. *)

val exists_many : string list -> t -> t

val pp : Format.formatter -> t -> unit
