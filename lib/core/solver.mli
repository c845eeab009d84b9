open Relational

(** The unified uniform solver: given structures [A] and [B], pick the best
    applicable tractable route from the paper and fall back to general
    backtracking search only when none applies.

    Route order is the route table in [solver.ml]: one ordered list of
    entries, one per tractable case (Schaefer's uniform algorithm,
    Theorem 3.3; the Hell–Nešetřil graph dichotomy; Booleanization,
    Lemma 3.5; acyclic and bounded-treewidth sources, Theorem 5.4;
    k-consistency, Theorems 4.7–4.9), ending in MAC backtracking.  Each
    entry's guard decides whether it applies; the sequential and the
    racing driver both read the same table.  The table has one
    boundary: the head (Schaefer-direct, Hell–Nešetřil, Booleanization,
    acyclic) decides the raw source, and only when none of it does is
    the source shrunk ({!Preprocess}) and the tail (the arc-consistency
    singleton shortcut; acyclic again, on a part the shrink folded or split off;
    bounded treewidth, k-consistency, backtracking) run on each shrunk
    part.  Without preprocessing the tail runs on the raw source as its
    one part, with neither the shortcut nor the repeated acyclic entry.

    All routes agree on the answer; the benches measure how much each one
    saves on its own instance class.

    {2 Certified verdicts}

    Every definite answer is {e proof-carrying}: [Sat] returns the witness
    homomorphism and [Unsat] returns a refutation certificate in the shape
    native to the deciding route (a unit-propagation trace, an implication
    cycle, a GF(2) combination, an odd walk, an emptied semi-join chain or
    DP table, a Spoiler-win derivation, or the tree the MAC search
    explored — see {!Certificate.t}).  The trusted, route-independent
    [Certificate.check a b] validates either against the raw instance.
    Each route builds its certificate in the run that decides, under the
    same budget slice, so no refutation costs a second pass.  A
    certificate the checker rejects is a solver bug: {!checked_certificate}
    raises [Error.Error (Internal _)] instead of returning a silently
    wrong answer.

    {2 Budgets and graceful degradation}

    [solve ?budget] is the {e portfolio degradation} layer.  The budget is
    divided into slices: each potentially-expensive route (treewidth DP,
    k-consistency, backtracking) runs under its own slice and, when the
    slice is exhausted, the dispatcher records the partial verdict and
    falls through to the next route instead of aborting.  Work is never
    wasted: a k-consistency pass that fails to refute still prunes the
    backtracking domains (any pair [(x, v)] outside the winning family can
    appear in no homomorphism), and its log of dead positions becomes the
    lemmas of a backtracking refutation when that pruning removed a value
    arc consistency kept.  Only when every route is exhausted does
    the dispatcher return [Unknown], together with a per-route budget
    report in {!result.attempts}.  Budgeted answers never contradict
    unbudgeted ones: [Sat]/[Unsat] are definitive; [Unknown] is the only
    degradation. *)

type route =
  | Preprocess
      (** A preprocessing shortcut decided: the boundary's empty or
          mismatched target relation or empty source, or the
          arc-consistency singleton-domain substitution that opens the tail (both only
          with preprocessing on).  Also the
          route of the shrink's own attempt record. *)
  | Schaefer_direct of Schaefer.Classify.schaefer_class
      (** A Boolean Schaefer target, decided and refuted in one formula
          pass ([Schaefer.Uniform.solve]).  Reports keep the name
          [schaefer-direct(...)]. *)
  | Booleanized of Schaefer.Classify.schaefer_class
  | Graph_target of Graph_dichotomy.verdict
  | Acyclic
  | Bounded_treewidth of int  (** Width of the decomposition used. *)
  | Consistency_refutation of int  (** Number of pebbles. *)
  | Backtracking  (** MAC search; refutes with the tree it explored. *)

val route_name : route -> string

type verdict =
  | Sat of Homomorphism.mapping
      (** The homomorphism exists; the witness is its own certificate. *)
  | Unsat of Certificate.t
      (** Provably none: a refutation checkable by {!Certificate.check}
          against the raw instance. *)
  | Unknown of Budget.exhausted_reason
      (** Every route exhausted its budget slice (no certificate — an
          [Unknown] makes no claim to certify). *)

type attempt_outcome =
  | Decided  (** This route produced the final verdict. *)
  | Pruned
      (** The route did not decide but contributed sound domain pruning
          that later routes reuse (k-consistency). *)
  | Exhausted of Budget.exhausted_reason
      (** The route ran out of its budget slice and was skipped. *)
  | Inapplicable  (** The route recognized the instance is outside it. *)
  | Cancelled
      (** Racing only ([threads > 1]): another route won first, so this
          racer was cancelled mid-run or its finished claim was
          discarded.  A cancelled route never contributes a verdict. *)

val outcome_name : attempt_outcome -> string
(** ["decided"], ["pruned"], ["exhausted(<reason>)"], ["inapplicable"]
    or ["cancelled(lost race)"]. *)

type attempt = {
  route : route;
  nodes : int;  (** Budget ticks this route consumed. *)
  outcome : attempt_outcome;
  counters : (string * int) list;
      (** Route-specific engine counters, sorted by name, when the route
          reports any: the k-consistency pass reports the counting
          engine's configs ranked, supports built, deaths propagated, and
          so on (names follow the telemetry scheme, DESIGN.md section 12).
          Derived from the engines' own returned stats — not from the
          telemetry sink — so attempts are bit-identical whether telemetry
          is enabled or not. *)
}

type result = {
  verdict : verdict;
  route : route;
      (** The route that produced the verdict (the last one attempted when
          the verdict is [Unknown]). *)
  attempts : attempt list;  (** Per-route budget report, in order tried. *)
}

val answer : result -> Homomorphism.mapping option
(** The witness when the verdict is [Sat]; [None] otherwise. *)

val certificate : result -> Certificate.t option
(** The certificate of a definite verdict: [Witness h] for [Sat h], the
    refutation for [Unsat]; [None] for [Unknown]. *)

val checked_certificate :
  Structure.t -> Structure.t -> result -> Certificate.t option
(** [checked_certificate a b r] is {!certificate}[ r] after the trusted
    {!Certificate.check} accepted it against [(a, b)]; [None] for
    [Unknown].  The exit gate of [--certify] in the CLI and of
    ["certify": true] in serve.
    @raise Error.Error ([internal]) when the checker rejects it. *)

val verdict_name : verdict -> string
(** ["sat"], ["unsat"] or ["unknown (<reason>)"]. *)

val solve :
  ?max_treewidth:int ->
  ?consistency_k:int ->
  ?booleanize_threshold:int ->
  ?budget:Budget.t ->
  ?threads:int ->
  ?preprocess:bool ->
  Structure.t ->
  Structure.t ->
  result
(** The head routes run first, on the raw source.  When none decides,
    [preprocess] (default [true]) runs the certified shrinking pipeline
    of {!Preprocess} at the boundary: the empty-relation and
    empty-source shortcuts, then connected-component decomposition of
    the source (identical components deduplicated, each piece solved
    independently on the tail and the verdicts conjoined), with
    dominated-element folding and budget-capped core computation per
    piece.  Refutations found on a shrunk piece are wrapped in
    [Certificate.Via_preprocess] so they still check against the raw
    instance; per-part witnesses are reassembled through the fold maps
    and re-verified.  The [Preprocess] attempt after the head's attempts
    in {!result.attempts} carries the [preprocess.*] shrink counters.
    Shrink-stage budget exhaustion degrades to the unshrunk instance
    ([preprocess.bailouts]); it never changes a verdict.  With
    [preprocess = false] the boundary never shrinks: the tail runs on
    the raw source as its one part.  With [threads > 1] and several
    parts, parts race through [Parallel.Race] under {!Budget.racer}
    budgets (first refutation cancels the rest).

    [max_treewidth] (default 3) caps the decomposition width the DP route
    accepts; [consistency_k] (default 2) is the pebble count of the
    refutation pass; [booleanize_threshold] (default 4) caps [|B|] for the
    Booleanization attempt.  [budget] (default unlimited) bounds the whole
    portfolio; [solve] never raises {!Budget.Exhausted} — exhaustion
    surfaces as an [Unknown] verdict.

    [threads] (default 1) selects portfolio racing: with [threads > 1]
    the head entries race on the raw source, then the tail entries race
    on each part (or the parts race each other), and each applicable
    route runs concurrently on its own domain under a
    private {!Budget.racer}, and the first finisher whose claim passes
    the trusted [Certificate.check] wins; accepting a claim raises a
    shared cancellation flag that aborts the losers, recorded as
    [Cancelled] attempts.  A claim that fails the checker is dropped and
    the race continues (counted as [solver.race.uncertified]), so racing
    preserves the proof-carrying invariant: a cancelled or uncertified
    route never contributes a verdict, and verdicts agree with
    [threads = 1] (k-consistency and backtracking run in order inside
    one racer, so the pruning survives).  Total spend is merged back
    into [budget].  [threads = 1] is the sequential dispatcher. *)

val exists : Structure.t -> Structure.t -> bool
(** Unbudgeted existence (always definitive). *)

val containment_instance : Cq.Query.t -> Cq.Query.t -> Structure.t * Structure.t
(** The homomorphism instance deciding [Q1 ⊆ Q2] (Chandra–Merlin): the
    canonical database of [Q2] as source, that of [Q1] as target.  The
    certificate of {!solve_containment} checks against exactly this pair.
    @raise Invalid_argument when the head arities differ. *)

val lift_target : Preprocess.retraction -> result -> result
(** Lift a result obtained against a {e shrunk target} (a cored serve
    template) back to the raw target: witnesses compose with the
    retraction's embed, refutations gain a target-side
    [Certificate.Via_preprocess] step.  The identity retraction is a
    no-op. *)

val solve_containment :
  ?budget:Budget.t ->
  ?threads:int ->
  ?preprocess:bool ->
  Cq.Query.t ->
  Cq.Query.t ->
  result
(** [Q1 ⊆ Q2] through the same dispatcher: restrictions on [Q2] surface as
    source-side structure (treewidth/acyclicity), restrictions on [Q1] as
    target-side structure (Schaefer after Booleanization).  [Sat _] means
    contained, [Unsat] not contained, [Unknown] out of budget; the
    certificate translates through Lemma 3.5's encoding unchanged, since
    it speaks about the canonical-database pair of
    {!containment_instance}.
    @raise Invalid_argument when the head arities differ. *)
