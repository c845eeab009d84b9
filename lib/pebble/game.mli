open Relational

(** The existential k-pebble game (Section 4).

    The Duplicator wins the game on [(A, B)] iff there is a nonempty family
    of partial homomorphisms from [A] to [B], closed under restrictions,
    with the forth property up to [k].  {!run} computes the largest such
    family by starting from all partial homomorphisms with domains of at
    most [k] elements and pruning configurations that lack an extension,
    cascading removals to supersets; this is the strong k-consistency
    procedure, and it runs in time [n^{O(k)}] (Theorem 4.7).

    One engine computes the fixpoint.  It ranks every configuration into
    a dense integer code ({!Encoding}), gathers the constraining tuples of
    [A] once per domain through the {!Relation.Index} layer, and replaces
    delete-and-rescan with AC-4-style support counters over the extension
    relation: a configuration dies when its count of surviving extensions
    for some unpebbled element reaches zero, and deaths propagate through
    a worklist that decrements the counters of each dead configuration's
    restrictions and kills its extensions.  The resulting {!family} is
    the engine's alive bitmap, one byte per code, queried with {!mem};
    nothing is decoded unless a test asks for {!configs}.  When the
    ranked space would exceed {!Encoding.capacity} the game declines
    ({!run} answers [None]) rather than allocate it.  Its differential
    reference, the list-based engine, is [Oracle.Pebble] in the test-only
    [oracle] library.

    Consequences implemented here:
    - if a homomorphism [A -> B] exists, the Duplicator wins (the converse
      can fail: the game is a polynomial relaxation);
    - when [not CSP(B)] is expressible in k-Datalog, the game is exact
      (Theorem 4.8), which yields the uniform tractability of Theorem 4.9.

    Every entry point takes an optional [?budget], ticked once per
    candidate mapping, supported configuration and propagation step; on
    exhaustion the computation aborts by raising [Budget.Exhausted].  [Core.Solver]
    uses this to bound the k-consistency pass in its portfolio.

    The engine runs on the calling domain; multicore solving happens
    one level up, where [Core.Solver] races whole routes and whole
    source components against each other. *)

type config = (int * int) list
(** A game position: pairs [(a, b)] of pebbled elements, sorted by [a],
    with distinct first components. *)

(** Dense integer codes for configurations.  Domain subsets of [A] are
    numbered by size, then by colex rank [r(S) = sum_j C(s_j, j+1)] over
    the sorted elements [s_0 < s_1 < ...]; each subset owns a block of
    [m^|S|] codes, one per image tuple in mixed radix (least-significant
    digit for the smallest pebbled element).  Codes, counter slots and
    the neighbours of a configuration are closed forms over a binomial
    table, so nothing is laid out per subset.  Exposed for the test
    suite; the engine uses it internally. *)
module Encoding : sig
  type t

  val capacity : int
  (** The most codes or counter slots an encoding may rank ([2^26]
      each). *)

  val create : n:int -> m:int -> k:int -> t option
  (** [None] when the ranked codes or the support-counter slots would
      exceed {!capacity}, a verdict from closed-form totals.  Under
      capacity the encoding holds [O(n k)] integers and costs as much
      time.  @raise Invalid_argument when [n <= 0], [m <= 0] or
      [k < 1]. *)

  val configs : t -> int
  (** Total number of ranked codes. *)

  val rank : t -> config -> int
  (** @raise Invalid_argument on a malformed configuration (unsorted or
      repeated domain, element outside [[0, n)], image out of range,
      domain larger than [k]). *)

  val unrank : t -> int -> config
  (** Inverse of {!rank}. @raise Invalid_argument when out of range. *)
end

type stats = {
  initial_configs : int;  (** Partial homomorphisms generated. *)
  removed : int;  (** Configurations pruned by the consistency loop. *)
  configs_ranked : int;  (** Dense codes ranked by the encoding. *)
  supports_built : int;  (** Support-counter increments during initialisation. *)
  deaths_propagated : int;  (** Dead configurations processed through the worklist. *)
}

type family
(** The largest restriction-closed family with the forth property, held
    as the engine's alive bitmap; empty when the Spoiler wins. *)

type outcome = {
  family : family;
  trace : (config * int) list;
      (** The chronological log of forth-property failures: an entry
          [(config, x)] records that [config] was removed because no
          extension by a value for [x] remained in the family at that
          moment.  When the family comes back empty, the log is a
          Spoiler-win derivation ending in the empty configuration, and
          [Certificate.check] can replay it against the raw instance
          ([Spoiler_win] certificates). *)
  stats : stats;
}

val run :
  ?budget:Budget.t -> k:int -> Structure.t -> Structure.t -> outcome option
(** Play the game to its fixpoint.  [None] when the configuration space
    exceeds {!Encoding.capacity}.  An empty source gives the family
    [{[]}], an empty target (with a nonempty source) the empty family and
    the one-step trace [[([], 0)]].
    @raise Invalid_argument when [k < 1].
    @raise Budget.Exhausted when [budget] runs out. *)

val mem : family -> config -> bool
(** Is a configuration part of the family?  [false] on a malformed one.
    The Duplicator wins iff [mem family []]. *)

val configs : family -> config list
(** Every configuration of the family, decoded.  For tests and oracle
    comparisons only: the list costs [O(k)] cells per survivor. *)

val duplicator_wins :
  ?budget:Budget.t -> k:int -> Structure.t -> Structure.t -> bool
(** [mem family []] of {!run}.  @raise Invalid_argument when the
    configuration space exceeds {!Encoding.capacity}. *)

val spoiler_wins :
  ?budget:Budget.t -> k:int -> Structure.t -> Structure.t -> bool
(** The negation of {!duplicator_wins}; a Spoiler win means definitely
    no homomorphism. *)

val counter_invariant : k:int -> Structure.t -> Structure.t -> bool
(** Run the engine to its fixpoint and audit the support-counter
    invariant against the surviving family: every survivor with fewer than
    [k] pebbles holds, for each unpebbled element, a counter that is both
    positive and equal to its number of surviving extensions.  [true] when
    the audit passes (and vacuously on empty instances or when the ranked
    space exceeds capacity).  Exposed for the test suite. *)

(** {1 Playing the game}

    A winning Duplicator strategy is exactly the winning family: respond to
    any Spoiler pebble placement by looking up an extension that stays in
    the family. *)

val respond : family -> config -> int -> int option
(** [respond family config a]: the Duplicator's answer to the Spoiler
    pebbling element [a] of the source, from a position in the family
    with fewer than [k] pebbles, found by probing each image with {!mem}.
    [None] when the position is not in the family, is already full, or
    already pebbles [a] — never when the position is a genuine reachable
    one. *)
