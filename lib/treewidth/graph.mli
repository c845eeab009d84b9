(** Simple undirected graphs on vertices [0 .. size-1]. *)

type t

val of_edges : size:int -> (int * int) list -> t
(** Self-loops are ignored; duplicate edges collapse.
    @raise Invalid_argument on out-of-range endpoints. *)

val size : t -> int

val neighbors : t -> int -> int list
(** Sorted. *)

val adjacency : t -> Set.Make(Int).t array
(** A fresh array of the [size] neighbor sets, for callers that rewire
    the graph in place (the elimination engine). *)

val edges : t -> (int * int) list
(** Pairs [(u, v)] with [u < v], sorted. *)
