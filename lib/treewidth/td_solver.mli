open Relational

(** Bounded-treewidth homomorphism testing (Theorem 5.4).

    When the source structure [A] has treewidth [k], dynamic programming
    over a tree decomposition of its Gaifman graph decides the existence of
    a homomorphism [A -> B] — and produces one — in time polynomial in
    [|A|] and [|B|] for fixed [k] (roughly [|A| * |B|^{k+1}]).

    This uniformizes the bounded-treewidth tractability results and, through
    canonical databases, gives the polynomial containment test [Q1 ⊆ Q2]
    for [Q2] of bounded treewidth.

    The solving entry points take an optional [?budget], ticked once per
    enumerated bag assignment; on exhaustion they raise
    [Budget.Exhausted]. *)

val decompose : ?cap:int -> Structure.t -> Tree_decomposition.t option
(** Min-fill decomposition of the Gaifman graph of a structure;
    [None] exactly when [cap] is given and the width exceeds it (see
    {!Elimination.decomposition}). *)

val solve_with_decomposition :
  ?budget:Budget.t ->
  Tree_decomposition.t ->
  Structure.t ->
  Structure.t ->
  Homomorphism.mapping option
(** @raise Invalid_argument if the decomposition is not valid for the
    source.
    @raise Budget.Exhausted when [budget] runs out. *)

val solve : ?budget:Budget.t -> Structure.t -> Structure.t -> Homomorphism.mapping option
(** [solve_with_decomposition] over the uncapped {!decompose}. *)

val exists : Structure.t -> Structure.t -> bool

type stats = {
  width : int;  (** Width of the decomposition used. *)
  tables : int;  (** Total partial maps stored across bags. *)
}

val solve_with_stats :
  ?budget:Budget.t -> Structure.t -> Structure.t -> Homomorphism.mapping option * stats

val count : ?budget:Budget.t -> Structure.t -> Structure.t -> int
(** Number of homomorphisms [A -> B], by sum-product dynamic programming
    over the decomposition — polynomial for bounded treewidth, a classical
    strengthening of the existence result.  All arithmetic is
    overflow-checked: counts grow like [|B|^|A|].
    @raise Homomorphism.Count_overflow when the total leaves the native
    [int] range.
    @raise Budget.Exhausted when [budget] runs out. *)
