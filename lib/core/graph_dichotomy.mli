open Relational

(** The Hell–Nešetřil dichotomy for undirected-graph targets (cited in the
    paper's introduction): CSP(H) is polynomial when H is 2-colorable or
    has a loop, and NP-complete otherwise.

    The tractable cases admit a direct uniform algorithm:
    - H has a loop: the constant map onto the loop;
    - H bipartite with an edge: [G -> H] iff [G] is 2-colorable — send the
      two colour classes onto any edge of [H];
    - H edgeless: only edgeless sources map in. *)

val is_undirected_graph : Structure.t -> bool
(** Exactly one relation symbol, binary, with a symmetric interpretation. *)

type verdict = Polynomial | Np_complete

val complexity : Structure.t -> verdict
(** @raise Invalid_argument if the structure is not an undirected graph. *)

val solve :
  ?budget:Budget.t ->
  Structure.t ->
  Structure.t ->
  (Homomorphism.mapping, Certificate.t) result
(** Uniform polynomial algorithm for tractable targets.  A refutation is
    built from the colourings the algorithm computes: an odd closed walk of
    the source against a proper 2-colouring of the target, or, for an
    edgeless or empty target, an empty-relation fact or a childless case
    split.  The source's 2-colouring ticks [budget] once per vertex.
    @raise Invalid_argument if the target is not an undirected graph in one
    of the tractable cases.
    @raise Budget.Exhausted when [budget] runs out. *)
