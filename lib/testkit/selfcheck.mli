(** Differential oracle over the solver routes.

    For each seed a small instance is generated deterministically and
    every applicable route is forced to answer it independently: the full
    portfolio (under its default policy and steered past its preferred
    routes), the same portfolio with structural preprocessing disabled
    (the {e preprocess differential} — shrunk and raw solves must agree,
    with every via-preprocess certificate validated by the trusted
    checker), MAC backtracking, both Schaefer algorithms, Booleanization,
    Hell–Nešetřil, Yannakakis, the treewidth DP, and the one-sided
    2-consistency refutation.  Every seventh seed instead runs a random
    containment instance end to end through {!Core.Solver.solve_containment}.

    Issues are collected, never raised: a definite disagreement between
    two routes, a certificate the trusted {!Certificate.check} rejects, a
    cross-route disagreement surfaced by the dispatcher as
    [Core.Error.Error (Internal _)], or any unexpected exception.  Budget
    exhaustion is not an issue — an exhausted route degrades to a skip,
    so the oracle terminates even on adversarial seeds.

    With [threads > 1] the racing portfolio ([Core.Solver.solve ~threads])
    joins the cross-route agreement check on every instance, with its
    certificates validated. *)

type issue = { seed : int; what : string }

type report = {
  instances : int;  (** Seeds examined. *)
  checked : int;  (** Seeds on which at least one route gave a definite answer. *)
  skipped : int;  (** Seeds on which every route skipped or exhausted. *)
  issues : issue list;  (** Empty iff the solver passed the self-check. *)
}

val instance : int -> Relational.Structure.t * Relational.Structure.t
(** The deterministic homomorphism instance behind a seed, rotating
    through the dispatcher's route territories.  Exposed so external
    property tests (e.g. the racing/sequential agreement property) can
    replay exactly the oracle's instance distribution. *)

val run :
  ?max_nodes:int -> ?count:int -> ?seed:int -> ?threads:int -> unit -> report
(** [run ?max_nodes ?count ?seed ?threads ()] checks [count] (default
    500) consecutive seeds starting at [seed] (default 0), giving every
    route invocation its own fresh budget of [max_nodes] (default
    50_000) ticks.  [threads] (default 1) > 1 adds the racing portfolio
    described above. *)
