(** Generalized arc consistency for the homomorphism problem.

    A propagation context pairs a source structure [A] with a target [B] and
    maintains, for every element of [A], a domain of candidate images in [B].
    Establishing (generalized) arc consistency removes every candidate that
    lacks a support in some tuple-constraint of [A].

    One engine does the work: AC-4.  It keeps per-(atom, position, value)
    support counters that are decremented incrementally as values die and
    restored exactly on {!pop}, giving amortised [O(||A|| * ||B||)]
    propagation (Theorem 3.4).  The context is mutable and supports
    checkpoint/undo, which lets backtracking searches (MAC) and
    consistency-based algorithms share one kernel.  Its differential
    reference, the rescan-and-revise fixpoint, is [Oracle.Arc] in the
    test-only [oracle] library. *)

type t

val create : ?budget:Budget.t -> Structure.t -> Structure.t -> t
(** Fresh context with full domains.  Symbols of [A]'s vocabulary missing
    from [B] (or carried with a different arity) are treated as empty
    relations of [B].  Building the context and every propagation read
    [budget]'s deadline and cancellation flag every 256 constraints
    built or values dequeued, so either interrupts a large pair; they
    tick no nodes and ignore the node limit.
    @raise Budget.Exhausted on the deadline or cancellation. *)

val source : t -> Structure.t

val target : t -> Structure.t

val dom_mem : t -> int -> int -> bool
(** [dom_mem ctx x v] tests whether target element [v] is still a candidate
    image for source element [x]. *)

val dom_size : t -> int -> int

val dom_values : t -> int -> int list

val remove_value : t -> int -> int -> bool
(** Removes a candidate and queues the values that lose their last
    support for the next {!propagate}.
    Returns [false] when the domain becomes empty (wipeout).  Idempotent. *)

val assign : t -> int -> int -> bool
(** Shrinks the domain of [x] to [{v}] and propagates to fixpoint.
    Returns [false] on wipeout. @raise Invalid_argument if [v] is not in the
    current domain of [x]. *)

val propagate : t -> bool
(** Propagates all pending removals to the arc-consistent fixpoint.
    Returns [false] on wipeout. *)

val establish : t -> bool
(** Makes the whole context arc-consistent from scratch (all variables
    scheduled).  Returns [false] when no homomorphism can exist.
    @raise Budget.Exhausted on the context budget's deadline or
    cancellation, as do {!assign} and {!propagate}. *)

val push : t -> unit
(** Push an undo checkpoint. *)

val pop : t -> unit
(** Restore the domains to the most recent checkpoint.
    @raise Invalid_argument if no checkpoint is pending. *)

val all_singleton : t -> bool

val solution : t -> int array
(** The induced mapping when every domain is a singleton.
    @raise Invalid_argument otherwise. *)

val removal_count : t -> int
(** Total number of domain removals performed so far (monotone; not reset by
    [pop]).  Useful as a work measure in benchmarks. *)
