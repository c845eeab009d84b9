open Relational

(** Unions of conjunctive queries.

    Containment of UCQs reduces to containment of conjunctive queries by
    the Sagiv–Yannakakis criterion: [U1 ⊆ U2] iff every disjunct of [U1] is
    contained in {e some} disjunct of [U2].  This extends the paper's
    machinery from Select-Project-Join queries to SPJU queries. *)

type t = private { arity : int; disjuncts : Query.t list }

val make : Query.t list -> t
(** @raise Invalid_argument on an empty list or mismatched head arities. *)

val disjunct_count : t -> int

val evaluate : t -> Structure.t -> Tuple.t list
(** Union of the disjuncts' answers, sorted. *)

val contained : t -> t -> bool
(** Sagiv–Yannakakis. *)

val equivalent : t -> t -> bool

val minimize : t -> t
(** Remove disjuncts contained in other disjuncts, then minimize each
    surviving disjunct; the result is equivalent with a minimal set of
    minimal disjuncts. *)
