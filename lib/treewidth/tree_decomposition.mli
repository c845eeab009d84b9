open Relational

(** Tree decompositions (Section 5): a tree whose nodes carry bags of
    vertices such that every vertex and every edge (or tuple) is covered by
    some bag, and the nodes containing a given vertex form a subtree. *)

type t = {
  bags : int list array;  (** Bag of each node (sorted). *)
  tree_edges : (int * int) list;  (** Edges of the decomposition tree. *)
}

val node_count : t -> int

val width : t -> int
(** Max bag size minus one; [-1] for the empty decomposition. *)

val validate_graph : Graph.t -> t -> bool
(** All three conditions, plus the tree actually being a tree. *)

val validate_structure : Structure.t -> t -> bool
(** Same with edge-coverage replaced by tuple-coverage (every tuple's
    elements inside some bag) — by Lemma 5.1 this is equivalent to being a
    decomposition of the Gaifman graph. *)

val adjacency : t -> int list array
(** Neighbor lists of the decomposition tree. *)
