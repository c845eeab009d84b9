(** Tuples of universe elements.

    A tuple is an immutable array of non-negative integers denoting elements
    of a structure's universe.  All functions treat the array as immutable;
    callers must not mutate a tuple after handing it to this module. *)

type t = int array

val compare : t -> t -> int
(** Lexicographic comparison (shorter tuples first). *)

val equal : t -> t -> bool

val hash : t -> int
(** Equality-compatible hash with full avalanche mixing: suitable for
    hash-indexing structured instances without degenerate buckets. *)

val elements : t -> int list
(** Distinct elements occurring in the tuple, in first-occurrence order. *)

val pp : Format.formatter -> t -> unit
(** Prints [(a1, ..., an)]. *)

module Table : Hashtbl.S with type key = t
(** Hash tables keyed by tuples (via {!hash} / {!equal}). *)
