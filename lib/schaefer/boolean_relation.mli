open Relational

(** Boolean relations: k-ary relations over the universe [{0, 1}].

    A tuple is stored as a bit mask whose bit [i] is the [i]-th component, so
    a k-ary relation is a set of integers in [[0, 2^k)].  Arities up to 60
    are supported. *)

type t

val create : int -> int list -> t
(** [create arity masks]. @raise Invalid_argument if [arity] is outside
    [0..60] or a mask has bits beyond the arity. *)

val arity : t -> int

val cardinal : t -> int

val is_empty : t -> bool

val mem : t -> int -> bool

val masks : t -> int list
(** Tuples as masks, increasing. *)

val tuples : t -> Tuple.t list
(** Tuples as 0/1 arrays. *)

val mask_of_tuple : Tuple.t -> int
(** @raise Invalid_argument if an entry is not 0/1 or the arity exceeds 60. *)

val tuple_of_mask : int -> int -> Tuple.t
(** [tuple_of_mask arity mask]. *)

val of_relation : Relation.t -> t
(** From a {!Relation.t} whose tuples are 0/1 vectors. *)

val to_relation : t -> Relation.t

(* Componentwise tuple operations (on masks of a given arity). *)

val tuple_and : int -> int -> int

val tuple_or : int -> int -> int

val tuple_xor3 : int -> int -> int -> int

val tuple_majority : int -> int -> int -> int

val closed_under2 : t -> (int -> int -> int) -> bool
(** Closure under a binary componentwise operation. *)

val closed_under3 : t -> (int -> int -> int -> int) -> bool

val ones : int -> int -> int list
(** [ones arity mask]: positions carrying a 1. *)

val complement_tuples : t -> t
(** Flip every bit of every tuple (not set complement). *)

val pp : Format.formatter -> t -> unit
