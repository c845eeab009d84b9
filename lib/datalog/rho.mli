open Relational

(** The canonical k-Datalog program [rho_B] of Theorem 4.7(2): for a fixed
    finite structure [B], it expresses, over an input structure [A], the
    query "does the Spoiler win the existential k-pebble game on [A] and
    [B]?".

    Consequently (Theorem 4.8), whenever [not CSP(B)] is expressible in
    k-Datalog at all, [rho_B] expresses it.

    The program has one k-ary IDB predicate [T_b] per k-tuple [b] of
    elements of [B] — use it only for small [B] and small [k]. *)

val build : Structure.t -> k:int -> Program.t
(** @raise Invalid_argument when [k < 1] or [B] is empty. *)

val spoiler_wins : Structure.t -> k:int -> Structure.t -> bool
(** [spoiler_wins b ~k a]: evaluate [rho_B] on [A]. *)
