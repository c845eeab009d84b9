open Relational

(** The existential k-pebble game (Section 4).

    The Duplicator wins the game on [(A, B)] iff there is a nonempty family
    of partial homomorphisms from [A] to [B], closed under restrictions,
    with the forth property up to [k].  [winning_family] computes the
    largest such family by starting from all partial homomorphisms with
    domains of at most [k] elements and pruning configurations that lack an
    extension, cascading removals to supersets; this is the strong
    k-consistency procedure, and it runs in time [n^{O(k)}] (Theorem 4.7).

    Two engines compute the same fixpoint:

    - [`Counting] (the default) ranks every configuration into a dense
      integer code ({!Encoding}), gathers the constraining tuples of [A]
      once per domain through the {!Relation.Index} layer, and replaces
      delete-and-rescan with AC-4-style support counters over the
      extension relation: a configuration dies when its count of surviving
      extensions for some unpebbled element reaches zero, and deaths
      propagate through a worklist that decrements the counters of each
      dead configuration's restrictions and kills its extensions.  When
      the ranked code space would exceed a fixed capacity (about [2^26]
      codes, counter slots, or extension-table slots) the call silently
      degrades to the list engine, whose streaming allocation the budget
      governs; the layout pass itself ticks the budget per subset.
    - [`Naive] is the original sorted-assoc-list engine, kept verbatim as
      a differential reference ([Core.Selfcheck] replays both engines on
      every instance).

    Consequences implemented here:
    - if a homomorphism [A -> B] exists, the Duplicator wins (the converse
      can fail: the game is a polynomial relaxation);
    - when [not CSP(B)] is expressible in k-Datalog, the game is exact
      (Theorem 4.8), which yields the uniform tractability of Theorem 4.9.

    Every entry point takes an optional [?budget], ticked once per ranked
    or generated candidate mapping and per propagation step; on exhaustion
    the computation aborts by raising [Budget.Exhausted].  [Core.Solver]
    uses this to bound the k-consistency pass in its portfolio.

    Both engines run on the calling domain; multicore solving happens
    one level up, where [Core.Solver] races whole routes and whole
    source components against each other. *)

type config = (int * int) list
(** A game position: pairs [(a, b)] of pebbled elements, sorted by [a],
    with distinct first components. *)

type engine = [ `Counting | `Naive ]
(** Fixpoint engine selection; both compute the identical family. *)

(** Dense integer codes for configurations: domain subsets of [A] (size at
    most [k]) are enumerated in DFS preorder and each subset owns a block
    of [m^|S|] codes, one per image tuple in mixed radix (least-significant
    digit for the smallest pebbled element).  Exposed for the test suite;
    the counting engine uses it internally. *)
module Encoding : sig
  type t

  val create : ?budget:Budget.t -> n:int -> m:int -> k:int -> unit -> t option
  (** [None] when the ranked space (codes, counter slots, or the n-sized
      extension tables carried by every subset below size [k]) would
      exceed the fixed capacity.  [budget] is ticked once per enumerated
      subset, so oversized inputs abort with {!Budget.Exhausted} instead
      of allocating unboundedly.  @raise Invalid_argument when [n <= 0],
      [m <= 0] or [k < 1]. *)

  val configs : t -> int
  (** Total number of ranked codes. *)

  val rank : t -> config -> int
  (** @raise Invalid_argument on a malformed configuration (unsorted or
      repeated domain, image out of range, domain larger than [k]). *)

  val unrank : t -> int -> config
  (** Inverse of {!rank}. @raise Invalid_argument when out of range. *)
end

val winning_family :
  ?budget:Budget.t ->
  ?engine:engine ->
  k:int ->
  Structure.t ->
  Structure.t ->
  config list
(** The largest restriction-closed family with the forth property; empty
    when the Spoiler wins.  @raise Invalid_argument when [k < 1].
    @raise Budget.Exhausted when [budget] runs out. *)

val winning_family_with_trace :
  ?budget:Budget.t ->
  ?engine:engine ->
  k:int ->
  Structure.t ->
  Structure.t ->
  config list * (config * int) list
(** The winning family together with the chronological log of forth-property
    failures: an entry [(config, x)] records that [config] was removed
    because no extension by a value for [x] remained in the family at that
    moment.  When the family comes back empty, the log is a Spoiler-win
    derivation ending in the empty configuration, and [Certificate.check]
    can replay it against the raw instance ([Spoiler_win] certificates). *)

val duplicator_wins :
  ?budget:Budget.t ->
  ?engine:engine ->
  k:int ->
  Structure.t ->
  Structure.t ->
  bool

val spoiler_wins :
  ?budget:Budget.t ->
  ?engine:engine ->
  k:int ->
  Structure.t ->
  Structure.t ->
  bool

type stats = {
  initial_configs : int;  (** Partial homomorphisms generated. *)
  removed : int;  (** Configurations pruned by the consistency loop. *)
  configs_ranked : int;
      (** Dense codes laid out by the counting engine (0 under [`Naive]). *)
  supports_built : int;
      (** Support-counter increments during initialisation (0 under [`Naive]). *)
  deaths_propagated : int;
      (** Dead configurations processed through the worklist (0 under
          [`Naive]). *)
}

val run_traced :
  ?budget:Budget.t ->
  ?engine:engine ->
  k:int ->
  Structure.t ->
  Structure.t ->
  config list * (config * int) list * stats
(** Family, forth-failure trace and engine statistics in one pass. *)

val duplicator_wins_with_stats :
  ?budget:Budget.t ->
  ?engine:engine ->
  k:int ->
  Structure.t ->
  Structure.t ->
  bool * stats

val solve :
  ?budget:Budget.t ->
  ?engine:engine ->
  k:int ->
  Structure.t ->
  Structure.t ->
  bool option
(** One-sided decision for [hom(A, B)]: [Some false] when the Spoiler wins
    (definitely no homomorphism); [None] when the Duplicator wins (a
    homomorphism is possible but not guaranteed unless [not CSP(B)] is
    k-Datalog-expressible). *)

val counter_invariant : k:int -> Structure.t -> Structure.t -> bool
(** Run the counting engine to its fixpoint and audit the support-counter
    invariant against the surviving family: every survivor with fewer than
    [k] pebbles holds, for each unpebbled element, a counter that is both
    positive and equal to its number of surviving extensions.  [true] when
    the audit passes (and vacuously on empty instances or when the ranked
    space exceeds capacity).  Exposed for the test suite. *)

(** {1 Playing the game}

    A winning Duplicator strategy is exactly the winning family: respond to
    any Spoiler pebble placement by looking up an extension that stays in
    the family. *)

type strategy

val strategy :
  ?budget:Budget.t -> ?engine:engine -> k:int -> Structure.t -> Structure.t -> strategy option
(** The Duplicator's strategy, or [None] when the Spoiler wins. *)

val respond : strategy -> config -> int -> int option
(** [respond s config a]: the Duplicator's answer to the Spoiler pebbling
    element [a] of the source, from a position in the family with fewer
    than [k] pebbles.  [None] when the position is not in the family, is
    already full, or already pebbles [a] — never when the position is a
    genuine reachable one. *)

val member : strategy -> config -> bool
(** Is a configuration part of the winning family? *)
