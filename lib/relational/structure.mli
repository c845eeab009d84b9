(** Finite relational structures.

    A structure has a universe [{0, ..., size-1}] and, for every symbol of
    its vocabulary, a relation of the corresponding arity over that universe.
    Structures are immutable; update operations return new structures. *)

type t

val create : Vocabulary.t -> size:int -> t
(** Structure with every relation empty. @raise Invalid_argument if
    [size < 0]. *)

val of_relations : Vocabulary.t -> size:int -> (string * Tuple.t list) list -> t
(** [of_relations vocab ~size rels] populates the named relations.
    @raise Invalid_argument on unknown symbols, arity mismatches, or tuples
    mentioning elements outside the universe. *)

val vocabulary : t -> Vocabulary.t

val size : t -> int
(** Cardinality of the universe. *)

val universe : t -> int list
(** [0; ...; size-1]. *)

val relation : t -> string -> Relation.t
(** @raise Not_found on unknown symbols. *)

val index : t -> string -> Relation.Index.t
(** Cached hash index of the named relation (see {!Relation.index}).
    @raise Not_found on unknown symbols. *)

val add_tuple : t -> string -> Tuple.t -> t
(** @raise Invalid_argument on unknown symbol, arity mismatch, or elements
    outside the universe. *)

val mem_tuple : t -> string -> Tuple.t -> bool

val total_tuples : t -> int
(** Sum of the cardinalities of all relations ([|A|] in the paper). *)

val norm : t -> int
(** Encoding size [||A||]: universe size plus the total number of tuple
    entries across all relations. *)

val fold_tuples : (string -> Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val facts : t -> (string * Tuple.t) list
(** Every fact [(name, tuple)], in {!fold_tuples} order. *)

val iter_tuples : (string -> Tuple.t -> unit) -> t -> unit

val equal : t -> t -> bool
(** Same vocabulary, same universe size, identical relations. *)

val induced : t -> int list -> t
(** [induced a elems] is the substructure induced on [elems]: the universe is
    renumbered [0..m-1] following the order of [elems] (duplicates removed),
    and only tuples entirely within [elems] survive.
    @raise Invalid_argument if an element is outside the universe. *)

val map_universe : t -> size:int -> (int -> int) -> t
(** Image structure: each tuple is mapped componentwise into a universe of
    the given size. @raise Invalid_argument if an image element is out of
    range. *)

val disjoint_union : t -> t -> t
(** Universe of [a + b]; elements of [b] are shifted by [size a].
    @raise Invalid_argument if the vocabularies differ. *)

val gaifman_edges : t -> (int * int) list
(** Edges [(u, v)] with [u < v] of the Gaifman graph: distinct elements
    co-occurring in some tuple. *)

val incidence_edges : t -> int * (int * int) list
(** Incidence graph: returns [(n_nodes, edges)] for the bipartite graph whose
    first [size] nodes are universe elements and whose remaining nodes stand
    for tuples; each tuple node is linked to the elements occurring in it. *)

val is_valid : t -> bool
(** Internal consistency check: every tuple within the universe, arities
    matching the vocabulary.  Holds by construction; exposed for tests. *)

val pp : Format.formatter -> t -> unit
