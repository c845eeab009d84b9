open Relational

(** Incidence treewidth and query-decomposition-style solving (Section 5
    discussion; Chekuri–Rajaraman querywidth).

    The incidence graph of a structure is bipartite: universe elements on
    one side, facts on the other, with an edge when the element occurs in
    the fact.  Its treewidth can be far below the Gaifman treewidth — a
    single n-ary fact has Gaifman treewidth n-1 but an incidence graph that
    is a star — and a tree decomposition of the incidence graph acts as a
    query decomposition: dynamic programming over it assigns whole target
    tuples to fact nodes, so wide relations do not blow up the tables. *)

val graph : Structure.t -> Graph.t
(** Nodes [0 .. size-1] are universe elements; nodes [size ..] are facts in
    {!Relational.Structure.fold_tuples} order. *)

val treewidth_upper : Structure.t -> int
(** Heuristic (min-fill) upper bound on the incidence treewidth. *)

type stats = { width : int; tables : int }

val solve_with_stats : Structure.t -> Structure.t -> Homomorphism.mapping option * stats
(** Homomorphism testing by dynamic programming over the min-fill
    decomposition of the incidence graph: element nodes range over [B]'s
    universe, fact nodes over the corresponding target relation.  The
    stats give the decomposition's width and the number of table
    entries stored. *)
