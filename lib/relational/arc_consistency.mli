(** Generalized arc consistency for the homomorphism problem.

    A propagation context pairs a source structure [A] with a target [B] and
    maintains, for every element of [A], a domain of candidate images in [B].
    Establishing (generalized) arc consistency removes every candidate that
    lacks a support in some tuple-constraint of [A].

    One engine does the work: compact-table filtering (Demeulenaere et
    al., CP 2016).  Every atom of [A] keeps a reversible bitset of the
    target tuples still live under the current domains: a tuple is live
    iff the value at each of its positions is in that position's domain,
    a repeated variable being checked per position.  A value is supported
    at a position iff its support mask (the target tuples carrying it
    there, one mask per (symbol, position, value), shared by every atom
    over the symbol) meets the live set.  Removing a value kills the live
    tuples of its masks, each at most once per atom between checkpoints,
    and only the values a killed tuple carried are checked again: the
    polynomial propagation of Theorem 3.4, in [|R_B| / 63] words per atom
    rather than a counter per target tuple.  The context is mutable and
    supports checkpoint/undo, which lets backtracking searches (MAC) and
    consistency-based algorithms share one kernel.  Its differential
    reference, the rescan-and-revise fixpoint, is [Oracle.Arc] in the
    test-only [oracle] library. *)

type t

val create :
  ?budget:Budget.t ->
  ?explain:(int -> int -> string -> Tuple.t -> unit) ->
  Structure.t ->
  Structure.t ->
  t
(** Fresh context with full domains.  Symbols of [A]'s vocabulary missing
    from [B] (or carried with a different arity) are treated as empty
    relations of [B].  Building the context and every propagation read
    [budget]'s deadline and cancellation flag every 256 constraints
    built or values dequeued, so either interrupts a large pair; they
    tick no nodes and ignore the node limit.  [explain x v symbol fact]
    hears of every value [v] that propagation removes from [x]'s domain,
    with the source fact whose constraint has no live tuple left
    carrying [v] at a position of [x]; after a wipeout the last call
    names the removal that emptied the domain.
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
    support for the next {!propagate}.  Before {!establish} it only
    narrows the domains that [establish] then closes.
    Returns [false] when the domain becomes empty (wipeout).  Idempotent. *)

val assign : t -> int -> int -> bool
(** Shrinks the domain of [x] to [{v}] and propagates to fixpoint.
    Returns [false] on wipeout.  The context must be established: only
    values that lose a live tuple are checked again, so an unsupported
    value that never had one would survive.
    @raise Invalid_argument if {!establish} has not run since the
    context was built or since a {!pop} went below the checkpoint it
    ran under, or if [v] is not in the current domain of [x]. *)

val propagate : t -> bool
(** Propagates all pending removals to the arc-consistent fixpoint;
    that is a fixpoint only on an established context, as for
    {!assign}.  Returns [false] on wipeout. *)

val establish : t -> bool
(** Makes the whole context arc-consistent from its current domains: every
    value some constraint does not support is removed, and the removals
    propagated.  Returns [false] when no homomorphism can exist.
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
