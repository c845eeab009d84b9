(** Homomorphisms between finite relational structures.

    A homomorphism [h : A -> B] is given as an [int array] of length
    [Structure.size A] whose entries are elements of [B]'s universe, such
    that every tuple of every relation of [A] is mapped into the
    corresponding relation of [B].

    [find]/[exists] implement the general (NP-complete) search: backtracking
    with minimum-remaining-values variable ordering, maintaining generalized
    arc consistency (MAC).  This is the paper's uniform baseline against
    which every tractable special case is compared.

    Every search entry point takes an optional [?budget]
    ({!Budget.unlimited} by default).  The budget is ticked once per
    search-tree node; on exhaustion the search aborts by raising
    {!Budget.Exhausted}.  Use {!decide} for a non-raising three-valued
    answer. *)

type mapping = int array

type stats = { nodes : int (** search-tree nodes explored *) }

exception Count_overflow
(** A homomorphism count exceeded OCaml's native [int] range.  Counts
    grow like |B|^|A|, so every counting path uses the checked
    primitives below and surfaces overflow as this typed failure
    instead of a silently wrapped total. *)

val checked_add : int -> int -> int
(** @raise Count_overflow on signed overflow. *)

val checked_mul : int -> int -> int
(** @raise Count_overflow on signed overflow. *)

val checked_pow : int -> int -> int
(** [checked_pow base exp] for [exp >= 0] by repeated checked
    multiplication.
    @raise Count_overflow when the power leaves the [int] range. *)

val is_homomorphism : Structure.t -> Structure.t -> mapping -> bool

val nullary_facts_hold : Structure.t -> Structure.t -> bool
(** Every nullary fact [P()] of the source is a fact of the target.  No
    mapping can repair a missing one, so every engine checks this before
    it shortcuts an empty source or propagates over positive arities. *)

val find :
  ?ordering:[ `Mrv | `Input ] ->
  ?restrict:(int -> int -> bool) ->
  ?budget:Budget.t ->
  ?pool:Parallel.Pool.t ->
  Structure.t ->
  Structure.t ->
  mapping option
(** First homomorphism found, if any.  [restrict x v] (default: always true)
    prunes target candidate [v] for source element [x] up front — used, e.g.,
    to search for non-surjective endomorphisms.  [ordering] selects the
    branching-variable heuristic: minimum-remaining-values (default) or
    plain input order (for ablations).  [pool] shards the root
    arc-consistency establish across domains (see
    {!Arc_consistency.establish}); the backtracking search itself stays
    on the calling domain.
    @raise Budget.Exhausted when [budget] runs out mid-search. *)

val find_with_stats :
  ?ordering:[ `Mrv | `Input ] ->
  ?restrict:(int -> int -> bool) ->
  ?budget:Budget.t ->
  ?pool:Parallel.Pool.t ->
  Structure.t ->
  Structure.t ->
  mapping option * stats

val decide :
  ?ordering:[ `Mrv | `Input ] ->
  ?restrict:(int -> int -> bool) ->
  ?budget:Budget.t ->
  ?pool:Parallel.Pool.t ->
  Structure.t ->
  Structure.t ->
  mapping Budget.outcome
(** Non-raising variant of {!find}: budget exhaustion becomes
    [Unknown]. *)

val exists : Structure.t -> Structure.t -> bool

val generator : (yield:(mapping -> unit) -> unit) -> mapping Seq.t
(** Invert a push-style producer into a pull-based sequence using an
    effect handler: the producer runs until it calls [yield], which
    suspends it and surfaces the mapping as the next sequence element.
    The sequence is {b ephemeral} (one-shot continuations) — force each
    node at most once.  Exceptions raised by the producer propagate from
    the forcing of the node that ran it. *)

val search_seq :
  ?ordering:[ `Mrv | `Input ] ->
  ?restrict:(int -> int -> bool) ->
  ?budget:Budget.t ->
  ?pool:Parallel.Pool.t ->
  Structure.t ->
  Structure.t ->
  mapping Seq.t
(** The backtracking search as a pull-based stream: each forced element
    is a fresh mapping array, produced with constant extra space beyond
    the suspended search state (an OCaml effect continuation).  The
    sequence is {b ephemeral} — force each node at most once.
    @raise Budget.Exhausted from the forcing of whichever node exhausts
    [budget]. *)

val enumerate :
  ?limit:int -> ?budget:Budget.t -> Structure.t -> Structure.t -> mapping list
(** All homomorphisms (up to [limit] when given), in no specified order;
    materializes {!search_seq}.
    @raise Budget.Exhausted when [budget] runs out mid-enumeration. *)

val count : ?budget:Budget.t -> Structure.t -> Structure.t -> int
(** Number of homomorphisms, by exhaustive backtracking with checked
    accumulation.
    @raise Count_overflow when the count exceeds the [int] range.
    @raise Budget.Exhausted when [budget] runs out mid-count. *)

val is_injective : mapping -> bool

val is_surjective : target_size:int -> mapping -> bool

val image : mapping -> int list
(** Distinct values, in first-occurrence order. *)

val compose : mapping -> mapping -> mapping
(** [compose g h] is [g ∘ h] (apply [h] first). *)

val identity : int -> mapping

val hom_equivalent : Structure.t -> Structure.t -> bool
(** Homomorphisms exist in both directions. *)

val folds_onto : Structure.t -> int -> int -> bool
(** [folds_onto a x y]: the retraction sending [x] to [y] and fixing every
    other element is an endomorphism of [a] — every tuple through [x]
    stays a tuple of [a] after substituting [y] for [x].  Domination test
    for preprocessing: computed off the relations' hash indexes, touching
    only the tuples that contain [x] (O(degree of x), not O(||A||)).
    [false] when [x = y]. *)

val fold_candidates : Structure.t -> int -> int list
(** Cheap superset of the elements [x] can fold onto, anchored on one
    tuple through [x]: only a [y] that completes that tuple's pattern in
    the same relation can absorb [x], and the per-(position, value) index
    enumerates exactly those.  When [x] occurs in no tuple at all every
    other element qualifies.  Sorted, never contains [x]. *)

val core : ?budget:Budget.t -> Structure.t -> Structure.t
(** The core: the smallest retract, unique up to isomorphism.  Computed by
    repeatedly finding non-surjective endomorphisms.
    @raise Budget.Exhausted when [budget] runs out mid-shrink. *)

val core_with_map : ?budget:Budget.t -> Structure.t -> Structure.t * mapping
(** The core together with the retraction from the original universe onto
    the core's (renumbered) universe. *)

val is_isomorphism : Structure.t -> Structure.t -> mapping -> bool
(** A bijective homomorphism whose inverse is also a homomorphism. *)

val find_isomorphism :
  ?budget:Budget.t -> Structure.t -> Structure.t -> mapping option
(** First isomorphism found (enumerating homomorphisms and filtering);
    intended for the small structures where isomorphism matters here, such
    as cores. *)

val isomorphic : Structure.t -> Structure.t -> bool
