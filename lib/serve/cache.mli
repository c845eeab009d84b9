(** The fingerprinted template cache.

    In the serve workload the template side [B] of a homomorphism request
    [(A, B)] repeats constantly (Kolaitis–Vardi: [B] is the schema /
    constraint language).  Per-template analysis — every relation's hash
    {!Relational.Relation.Index} — is expensive but amortizable, so
    the cache builds it once per distinct template and then {e interns}
    the analysed [Structure.t]: a hit hands back the cached structure
    whose lazily-built indexes are already warm, and every request
    against that template reuses them.  Schaefer classes are not kept:
    a solve computes them from the template (Theorem 3.1), which costs
    about what a lookup would.

    Each entry also stores the template's certified {e core}
    ({!Preprocess.target_core}), computed once at insert/warm time, so
    every request against a cached template solves the smaller target
    and lifts the result back through the retraction.  This is the one
    place a shrink is kept: {!Preprocess} itself remembers nothing
    between calls.

    Keys are fingerprints (FNV-1a 64 over the canonical structure text);
    the canonical text itself is kept per entry and compared on hit —
    and so is the canonical text of the stored core, re-derived on every
    hit — so a fingerprint collision or a corrupted core degrades to a
    rebuild instead of cross-template contamination.  The cache is
    bounded with LRU
    eviction, and it {e degrades gracefully}: when an entry build fails —
    including injected {!Fault.Injected} at the [cache] site — the
    fingerprint is marked {e poisoned} and requests fall back to solving
    against their own freshly parsed [B], rather than erroring the
    request or re-running the failing build on every hit.

    All operations are mutex-guarded; the cache is shared by all request
    threads. *)

type t

type lookup =
  | Hit of Relational.Structure.t * Preprocess.retraction
      (** The interned, pre-analysed template together with its
          certified core — solve against the core and lift the result
          with [Core.Solver.lift_target]. *)
  | Miss of Relational.Structure.t * Preprocess.retraction
      (** Freshly built and inserted; the returned structure is the
          interned one, so its analyses warm up for followers. *)
  | Poisoned of string
      (** A previous build of this fingerprint failed with the recorded
          message; solve against the caller's own structure, uncached. *)

type template_stats = {
  t_fingerprint : string;
  t_raw_elements : int;
  t_core_elements : int;
      (** [t_core_elements < t_raw_elements] iff the template's core is a
          proper retract — the cache-side shrink ratio operators read off
          the [stats] op. *)
}

type stats = {
  hits : int;
  misses : int;
  poisoned : int;  (** Lookups answered [Poisoned]. *)
  build_failures : int;  (** Builds that failed and poisoned their key. *)
  evictions : int;
  entries : int;  (** Current resident entries. *)
  capacity : int;
  templates : template_stats list;  (** Resident entries, by fingerprint. *)
}

val create : ?preprocess:bool -> capacity:int -> unit -> t
(** LRU capacity is clamped to at least 1.  [preprocess] (default
    [true]) cores each template once at insert/warm time (counted at
    [serve.preprocess.shrunk] when the core is a proper retract); when
    false every entry carries the identity retraction. *)

val fingerprint : Relational.Structure.t -> string
(** 16-hex-digit FNV-1a 64 of the canonical structure text.  Exposed for
    tests and for the [stats] op. *)

val lookup : t -> Relational.Structure.t -> lookup * string
(** [lookup t b] returns the cache decision for template [b] together
    with its fingerprint.  Never raises: any exception out of the
    analysis build (including injected faults) poisons the key and
    surfaces as [Poisoned].  Bumps the [serve.cache.hit] /
    [serve.cache.miss] / [serve.cache.poisoned] / [serve.cache.evicted]
    telemetry counters. *)

val stats : t -> stats

val clear : t -> unit
(** Drop all entries and poison marks (counters keep accumulating). *)
