open Relational

(** Deterministic workload generators for the examples, the test suite and
    the benchmark harness.  Every random generator takes an explicit seed,
    so benchmark runs are reproducible. *)

val graph_vocab : Vocabulary.t
(** [{E/2}]. *)

val path : int -> Structure.t
(** Directed path on [n] vertices. *)

val directed_cycle : int -> Structure.t

val undirected_cycle : int -> Structure.t

val clique : int -> Structure.t
(** Loopless complete graph with both edge directions — the target for
    [k]-colorability. *)

val k2 : Structure.t
(** A single undirected edge: the 2-colorability target. *)

val complete_bipartite : int -> int -> Structure.t

val grid : int -> int -> Structure.t
(** Undirected grid graph (treewidth [min rows cols]). *)

val product : Structure.t -> Structure.t -> Structure.t
(** Categorical product: universe pairs encoded as [i * size b + j]; a tuple
    belongs to the product iff both projections belong to the factors.
    @raise Invalid_argument on different vocabularies. *)

val rename_relations : Structure.t -> (string -> string) -> Structure.t
(** Structure over the renamed vocabulary. @raise Invalid_argument if the
    renaming collides. *)

val staircase_dag : int -> Structure.t
(** Transitive tournament: directed edges [(i, j)] for all [i < j] —
    [n(n-1)/2] tuples.  A dense digraph admitting no long directed path,
    so propagation from a longer {!path} wipes out with heavy cascading:
    the dense-target workload of the E16 propagation benchmarks. *)

val erdos_renyi : seed:int -> n:int -> p:float -> Structure.t
(** Undirected G(n, p). *)

val random_structure :
  seed:int -> Vocabulary.t -> size:int -> tuples:int -> Structure.t
(** [tuples] random facts per relation. *)

val random_partial_ktree : seed:int -> n:int -> k:int -> keep:float -> Structure.t
(** Random k-tree with each edge kept with probability [keep]: an
    undirected graph of treewidth at most [k] — the Theorem 5.4
    workload. *)

val pendant_cycle : seed:int -> cycle:int -> int -> Structure.t
(** The undirected cycle on elements [0 .. cycle-1] with a random tree of
    [n] more vertices hanging off it: vertex [cycle + i] is adjacent to
    a uniform earlier vertex.  For an odd cycle the core is the cycle,
    and every tree vertex folds away — the workload of the fold-stage
    scaling tests (E19's pendant-tree family). *)

val random_schaefer_target :
  seed:int -> Schaefer.Classify.schaefer_class -> arities:int list -> Structure.t
(** Boolean structure whose relations all lie in the given class (closure
    of random tuple sets under the class operation). *)

val one_in_three_target : Structure.t
(** [({0,1}, {001, 010, 100})]: positive 1-in-3 SAT, the NP-complete side
    of Schaefer's dichotomy. *)

val coloring_target : int -> Structure.t
(** Alias for {!clique}. *)

val transitive_closure : Datalog.Program.t
(** Goal [TC(x, y)]: reachability over edge relation [E]. *)

val same_generation : Datalog.Program.t
(** Goal [SG(x, y)] over a parent relation [P]: the classic same-generation
    program. *)

val chain_query : ?pred:string -> int -> Cq.Query.t
(** [Q(X0) :- E(X0, X1), ..., E(X_{n-1}, X_n)]: treewidth-1 queries. *)

val random_query :
  seed:int -> predicates:(string * int) list -> variables:int -> atoms:int -> Cq.Query.t
(** Random conjunctive query with a unary head. *)

val random_two_atom_query :
  seed:int -> predicates:int -> arity:int -> variables:int -> Cq.Query.t
(** Every predicate occurs at most twice (Saraiya's class). *)
