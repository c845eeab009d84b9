open Relational

(** Certificate construction for the dispatcher routes.  The Schaefer
    certificates come from the Theorem 3.3 pass ({!Schaefer.Uniform.refute},
    {!Schaefer.Booleanize.refute}) and the odd walk from the source's failed
    2-colouring ({!Graph_dichotomy.two_colouring}).

    All builders are untrusted; their output is validated by the trusted
    {!Certificate.check}.  Each returns [None] only when the instance is
    not actually refutable by the route's argument — [Core.Solver] treats
    that as an internal error (a cross-route disagreement). *)

val trivial_unsat : Structure.t -> Structure.t -> Certificate.t option
(** Empty target universe, nonempty source: a childless case split. *)

val of_schaefer_direct :
  ?budget:Budget.t -> Structure.t -> Structure.t -> Certificate.t option
(** {!Schaefer.Uniform.refute}. *)

val of_booleanized :
  ?budget:Budget.t -> Structure.t -> Structure.t -> Certificate.t option
(** {!Schaefer.Booleanize.refute}. *)

val of_graph : Structure.t -> Structure.t -> Certificate.t option
(** Empty-relation fact, or an odd closed walk of the source paired with a
    proper 2-colouring of the (bipartite) target. *)

val of_acyclic : Structure.t -> Structure.t -> Certificate.t option
(** The GYO join forest, for the checker to re-run the semi-joins on. *)

val of_treewidth :
  Treewidth.Tree_decomposition.t ->
  Structure.t ->
  Structure.t ->
  Certificate.t option
(** The decomposition's bags and parent pointers, for the checker to
    re-run the dynamic program on. *)

val of_consistency :
  trace:(Certificate.config * int) list -> Structure.t -> Certificate.t
(** Wrap the pebble game's forth-failure log as a Spoiler-win derivation. *)

val of_backtracking :
  ?budget:Budget.t -> Structure.t -> Structure.t -> Certificate.t option
(** Independent exhaustive search ({!Certificate.refute_by_search});
    [None] means that search found a homomorphism — a disagreement.
    @raise Budget.Exhausted when [budget] runs out. *)
