open Relational

(** Certified instance shrinking.  [Solver.solve] shrinks the source
    only when no route ahead of its preprocessing boundary decides the
    raw instance, ahead of the width-bounded and exponential routes.

    Every structure is homomorphically equivalent to its core, and a
    disconnected source solves component by component; both facts let
    those routes run on a (sometimes dramatically) smaller instance
    without changing the verdict.  The pipeline here applies, in order:

    + connected-component decomposition of the source, with
      textually-identical components deduplicated down to one
      representative each;
    + dominated-element folding — [x] folds onto [y] when substituting
      [y] for [x] keeps every tuple through [x] in its relation
      ({!Homomorphism.folds_onto}), so dropping [x] is a retraction —
      in one pass over a live set ({!fold_stage});
    + core computation by greedy retraction search (repeatedly find an
      endomorphism missing some element), budget-metered and memoized by
      canonical text.  Each round establishes one arc-consistent
      self-context and searches it once per avoided element; a round
      whose domains are all singletons has found a rigid structure, a
      core, and ends the stage.

    Every shrink is returned as a {!retraction} whose [fold]/[embed]
    maps certify it: [fold] is a homomorphism from the original onto the
    shrunk structure, [embed] a homomorphism back, and
    [fold . embed = id] on the shrunk universe.  {!certificate_steps}
    turns these into the {!Certificate.Via_preprocess} replay form.

    Budget discipline: the fold and retraction searches tick the given
    budget; on {!Budget.Exhausted} a stage degrades to the (sound)
    partial shrink it had already certified — never to a changed verdict
    — and the bailout is counted.  The core search is additionally
    capped by [core_nodes] (default [max 64 (norm / 4)]) so that
    already-minimal instances pay a bounded, small overhead instead of a
    futile exponential search. *)

type retraction = {
  structure : Structure.t;  (** The shrunk structure. *)
  fold : int array;
      (** Homomorphism original [->] shrunk; identity composed with
          [embed]. *)
  embed : int array;  (** Homomorphism shrunk [->] original. *)
}

val identity_retraction : Structure.t -> retraction

val is_trivial : retraction -> bool
(** No element was dropped. *)

type stats = {
  raw_elements : int;
  shrunk_elements : int;
      (** Sum over distinct parts of their shrunk sizes — the universe
          the portfolio actually searches. *)
  components : int;
  distinct_parts : int;  (** After textual deduplication. *)
  folded : int;  (** Elements removed by dominated-element folding. *)
  core_dropped : int;  (** Elements removed by retraction search. *)
  bailouts : int;  (** Stages that hit a budget and kept partial work. *)
  memo_hits : int;
}

val counters : stats -> (string * int) list
(** Stats as ["preprocess.*"] counters for attempt records. *)

type part = {
  piece : Structure.t;  (** The component, before shrinking. *)
  piece_embed : int array;
      (** Inclusion piece [->] original (original element numbers,
          ascending). *)
  shrink : retraction;  (** Fold + core shrink of [piece]. *)
  copies : int;  (** Components this part stands for. *)
}

type source = {
  parts : part array;
  assign : (int * int) array;
      (** For each original element: its part index and its element
          number inside that part's [piece]. *)
  stats : stats;
}

val components : Structure.t -> source
(** The component stage alone: split the source into connected
    components and deduplicate textually identical ones.  Every part's
    [shrink] is the identity on its [piece].  A connected input yields
    {!whole}.  Ticks no budget; [Enumerate.count] uses only
    this stage (fold and core preserve existence, not counts). *)

val shrink_source :
  ?budget:Budget.t -> ?core_nodes:int -> Structure.t -> source
(** Full pipeline on a source structure: {!components}, then fold and
    core of each part's [piece], memoized by canonical text.  A connected, unshrinkable input yields one part
    whose [piece] is the input itself (identity embed) and whose
    [shrink] is trivial. *)

val whole : Structure.t -> source
(** The input as one part with the identity shrink: what the solver
    works on when preprocessing is off. *)

val fold_stage : budget:Budget.t -> Structure.t -> retraction * int * bool
(** The folding stage alone: [(r, folded, bailed)].  Folds dominated
    elements to fixpoint in one pass over a live set, making exactly the
    folds of a top-down rescan after every fold, and takes one induced
    copy at the end ([r.structure] is the input itself when nothing
    folded).  One budget tick per domination test; on exhaustion the
    completed folds are kept and [bailed] is set. *)

val target_core : ?budget:Budget.t -> ?core_nodes:int -> Structure.t -> retraction
(** Fold + core shrink of a target (serve template) structure.  Memoized
    with the source pipeline's table; the identity retraction when
    nothing shrinks or the budget bails immediately. *)

val ac_singleton_witness :
  ?budget:Budget.t -> Structure.t -> Structure.t -> int array option
(** Arc-consistency singleton-domain substitution: establish arc consistency; when
    every domain is a singleton and the forced assignment is a
    homomorphism, that assignment decides the instance [Sat] outright.
    @raise Budget.Exhausted only via [Budget.check] up front. *)

val certificate_steps : source -> int -> Certificate.shrink_step list
(** The replay chain (component restriction, then retraction; either may
    be absent) carrying a part's verdict back to the full source. *)

val wrap_certificate : source -> int -> Certificate.t -> Certificate.t
(** Wrap a refutation found on part [i]'s shrunk piece for checking
    against the original source (no-op when the part is the unshrunk
    input). *)

val target_step : retraction -> Certificate.shrink_step option
(** The target-side replay step, [None] for a trivial retraction. *)

val assemble_witness : source -> (int -> int array) -> int array
(** Reassemble a witness on the original source from per-part witnesses
    on the shrunk pieces: element [e] maps through its part's fold, then
    the part's witness. *)

val memo_stats : unit -> int * int
(** (entries, capacity) of the shared shrink memo table, for reporting. *)

val memo_reset : unit -> unit
(** Empty the shrink memo.  For tests that need memo-cold determinism
    (attempt records mention memo hits and skipped search work). *)
