open Relational

(** Theorem 4.7(1): the existential k-pebble game as a least fixed-point
    sentence over the tagged sum [A + B].

    The 2k-ary relation [T(x1..xk, y1..yk)] — "the Spoiler wins from the
    configuration pebbling [x] in [A] and [y] in [B]" — is defined by the
    positive system

    {v T(x,y) <- theta(x,y) \/ \/_j  EX x_j (D1(x_j) /\
                                       ALL y_j (D2(y_j) -> T(x,y))) v}

    where [theta] collects the immediate mismatches (non-functional
    correspondence, or a pebbled fact of [A] absent from [B]).  The Spoiler
    wins the game iff [A+B] satisfies [EX x (D1 /\ ALL y (D2 -> T))].

    Together with {!Pebble.Game} (the combinatorial algorithm) and
    {!Datalog.Rho} (the k-Datalog program for fixed [B]) this gives three
    independent implementations of the same query, cross-checked in the
    test suite. *)

val spoiler_wins : k:int -> Structure.t -> Structure.t -> bool
(** Evaluate the LFP sentence on [Sum.encode a b].
    @raise Invalid_argument when [k < 1] or the vocabularies differ. *)
