(** Elimination orders and treewidth computation.

    One greedy elimination pass (min-fill or min-degree) gives a tree
    decomposition and so an upper bound on treewidth; the exact algorithm
    is a dynamic program over vertex subsets, usable for small graphs (it
    is exponential — treewidth is NP-hard in general, though Bodlaender's
    algorithm is linear for each fixed k). *)

val decomposition :
  ?heuristic:[ `Min_degree | `Min_fill ] ->
  ?cap:int ->
  Graph.t ->
  Tree_decomposition.t option
(** The decomposition of the greedy elimination order: repeatedly
    eliminate the vertex adding the fewest fill edges ([`Min_fill], the
    default) or of least current degree ([`Min_degree]), the lowest index
    among ties.  The bag of vertex [v] is node [v]: [v] plus its
    neighbors in the fill-in graph when it is eliminated.

    [None] exactly when [cap] is given and the decomposition's width
    exceeds it; the pass stops at the first vertex eliminated with more
    than [cap] neighbors.  Without [cap] the result is always [Some]. *)

val treewidth_upper_bound : Graph.t -> int
(** Best width of the two heuristics. *)

val treewidth_exact : Graph.t -> int
(** Exact treewidth by subset dynamic programming.
    @raise Invalid_argument when the graph has more than 20 vertices. *)
