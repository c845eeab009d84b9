open Relational

(** One join evaluator for the polynomial cases of Section 5.

    Acyclic sources (querywidth 1) and bounded treewidth (Theorem 5.4)
    come down to the same algorithm: root a tree of local tables, fill
    each table bottom-up keyed by the elements its node shares with its
    parent, then read answers top-down.  This module builds that tree in
    two ways and runs the one pass over either:

    + {b join forest} — one node per fact of an acyclic source, whose
      rows are the target tuples matching the fact's repetition pattern,
      plus one node per element in no fact, whose rows are all target
      elements;
    + {b tree decomposition} — one node per bag, whose rows are the bag
      assignments satisfying the facts inside the bag, generated lazily
      with one [Budget.tick] each.

    What a table stores per key is a parameter ({!store}): the first row
    (decide), a sum of products (count), all rows (enumerate), or
    anything else that folds over rows and children — {!Cq.Acyclic}
    keeps deduplicated head projections.  Nullary facts need no special
    case: on a join forest each is a node whose one candidate row is
    [()], and in a decomposition each lies inside every bag. *)

type tree
(** A rooted forest of nodes, each with a list of source elements and a
    generator of rows: tuples of target elements aligned with them. *)

val of_forest :
  ?budget:Budget.t ->
  Structure.t ->
  facts:(string * Tuple.t) array ->
  parent:int array ->
  Structure.t ->
  tree
(** [of_forest a ~facts ~parent b] over a join forest of [a] (as built by
    {!Hypergraph.join_forest}).  Rows tick [budget] (default: unlimited)
    once each as the pass reads them. *)

val of_decomposition :
  ?budget:Budget.t -> Tree_decomposition.t -> Structure.t -> Structure.t -> tree
(** [of_decomposition td a b], rooted by {!rooted}.  [td] must be a
    tree decomposition of [a] (see {!Tree_decomposition.validate_structure}). *)

val of_bags :
  ?budget:Budget.t ->
  Tree_decomposition.t ->
  size:int ->
  domain:(int -> int) ->
  checks:(int array -> (Tuple.t -> bool) list) ->
  tree
(** The general decomposition shape behind {!of_decomposition}: vertex
    [v] ranges over [0 .. domain v - 1], [checks bag] lists the tests a
    row of the (sorted) [bag] must pass, and answers are arrays of
    [size] vertex values.  {!Incidence} decomposes the incidence graph
    this way. *)

val candidates : Structure.t -> string * Tuple.t -> Tuple.t list
(** [candidates b fact]: target tuples of the fact's relation matching
    its repetition pattern — the rows of the fact's join-forest node. *)

val rooted : Tree_decomposition.t -> int array
(** The parent of each decomposition node ([-1] for roots): depth-first
    from the least unvisited node of each component.  The one rooting
    every decomposition-based table pass and certificate uses. *)

val vars : tree -> int array array
(** Source elements of each node, aligned with its rows. *)

type 'v store = {
  row : int -> Tuple.t -> 'v;
      (** Value of one row of a node, on its own.  Each row is a fresh
          array, so a store may keep it. *)
  join : 'v -> 'v -> 'v;
      (** Fold in the value a child stores under the row's key. *)
  add : 'v -> 'v -> 'v;
      (** Merge with the value already stored under the same key
          (the old value comes first). *)
}

val bottom_up : tree -> 'v store -> 'v Tuple.Table.t array * bool
(** Children before parents, fill each node's table: a row survives when
    every child stores a value under the key the row induces, and is
    stored under its own parent-shared key.  Stops at the first table
    that comes out empty; the flag says whether none did. *)

val root_values : tree -> 'v Tuple.Table.t array -> 'v list
(** What the roots store, after a successful {!bottom_up}. *)

val solve : tree -> Homomorphism.mapping option * int
(** A homomorphism read top-down from first-row tables, or [None]; with
    the number of table entries stored. *)

val count : tree -> int
(** Number of homomorphisms, by overflow-checked sum of products.
    @raise Homomorphism.Count_overflow *)

val enumerate :
  budget:Budget.t -> tree -> yield:(Homomorphism.mapping -> unit) -> unit
(** Every homomorphism, backtrack-free off all-row tables; [yield]
    receives a buffer that the next answer overwrites.  Ticks [budget]
    once per row chosen on the way down. *)
