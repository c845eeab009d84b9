(** Homomorphisms between finite relational structures.

    A homomorphism [h : A -> B] is given as an [int array] of length
    [Structure.size A] whose entries are elements of [B]'s universe, such
    that every tuple of every relation of [A] is mapped into the
    corresponding relation of [B].

    [find]/[exists] implement the general (NP-complete) search: backtracking
    with minimum-remaining-values variable ordering, maintaining generalized
    arc consistency (MAC, over the compact-table context of
    {!Arc_consistency}).
    This is the paper's uniform baseline against which every tractable
    special case is compared.  One engine serves every entry point;
    {!refute} also answers the tree it explored when no homomorphism
    exists.

    Every search entry point takes an optional [?budget]
    ({!Budget.unlimited} by default).  The budget is ticked once per
    search-tree node; on exhaustion the search aborts by raising
    {!Budget.Exhausted}. *)

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
  Structure.t ->
  Structure.t ->
  mapping option
(** First homomorphism found, if any.  [restrict x v] (default: always true)
    prunes target candidate [v] for source element [x] before the first
    node, once arc consistency has closed the full domains — used, e.g.,
    to search for non-surjective endomorphisms.  [ordering] selects the
    branching-variable heuristic: minimum-remaining-values (default) or
    plain input order (for ablations).
    @raise Budget.Exhausted when [budget] runs out mid-search. *)

val find_with_stats :
  ?ordering:[ `Mrv | `Input ] ->
  ?restrict:(int -> int -> bool) ->
  ?budget:Budget.t ->
  Structure.t ->
  Structure.t ->
  mapping option * stats

val exists : Structure.t -> Structure.t -> bool

val search_context :
  ?budget:Budget.t ->
  Arc_consistency.t ->
  on_solution:(mapping -> bool) ->
  unit
(** The MAC loop every search above runs, with the minimum-remaining-values
    ordering, on a given context from its current domains, which must be
    arc-consistent (its last {!Arc_consistency.establish} or
    {!Arc_consistency.propagate} answered [true]).  [on_solution]
    receives each homomorphism inside the domains and returns [true] to
    continue.  Every assignment is undone before it returns, so a caller
    can narrow the domains between [push] and [pop] and search again
    without a fresh context.
    @raise Budget.Exhausted when [budget] runs out mid-search. *)

type origin = { symbol : string; fact : Tuple.t }
(** A fact of the source, by relation symbol and tuple. *)

(** The tree a refuting search explored.  Every node first lists the
    values propagation removed there, then ends in a wipeout or a case
    split.  [Certificate.search_tree] is this type. *)
type tree =
  | Conflict of origin  (** A fact with no image left inside the domains. *)
  | Prune of { origin : origin; elem : int; value : int; rest : tree }
      (** Arc consistency removed [value] from [elem]'s domain: no image
          of [origin] inside the domains maps [elem] to [value]. *)
  | Split of { elem : int; children : (int * tree) list }
      (** One child per value left in [elem]'s domain, keyed by it. *)

val refute :
  ?restrict:(int -> int -> bool) ->
  ?budget:Budget.t ->
  Structure.t ->
  Structure.t ->
  (mapping, tree * bool) result
(** {!find}'s search, which on failure answers the tree it explored (the
    same nodes in the same order) and whether [restrict] removed a value
    that arc consistency over the full domains kept, so that the tree
    holds only under the restriction.  Only this entry point logs why
    each value went.
    @raise Budget.Exhausted when [budget] runs out mid-search. *)

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
  Structure.t ->
  Structure.t ->
  mapping Seq.t
(** The backtracking search as a pull-based stream: each forced element
    is a fresh mapping array, produced with constant extra space beyond
    the suspended search state (an OCaml effect continuation).  The
    sequence is {b ephemeral} — force each node at most once.
    @raise Budget.Exhausted from the forcing of whichever node exhausts
    [budget]. *)

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

val folds_onto : ?live:bool array -> Structure.t -> int -> int -> bool
(** [folds_onto ?live a x y]: the retraction sending [x] to [y] and fixing
    every other element is an endomorphism of the substructure of [a]
    induced on the [live] elements (default: all of them) — every live
    tuple through [x] stays a tuple of [a] after substituting [y] for
    [x].  Domination test for preprocessing: computed off the relations'
    hash indexes, touching only the tuples that contain [x] (O(degree of
    x), not O(||A||)), so a caller dropping elements one at a time
    clears their [live] bits instead of copying the structure.  [x] and
    [y] must be live.  [false] when [x = y]. *)

val fold_candidates : ?live:bool array -> Structure.t -> int -> int list
(** Cheap superset of the live elements [x] can fold onto (see
    {!folds_onto}), anchored on the first live tuple through [x]: only a
    [y] that completes that tuple's pattern in the same relation can
    absorb [x], and the per-(position, value) index enumerates exactly
    those.  When [x] occurs in no live tuple every other live element
    qualifies.  Sorted, never contains [x]; the same list the induced
    substructure would give, renumbered. *)

val is_isomorphism : Structure.t -> Structure.t -> mapping -> bool
(** A bijective homomorphism whose inverse is also a homomorphism. *)

val find_isomorphism :
  ?budget:Budget.t -> Structure.t -> Structure.t -> mapping option
(** First isomorphism found (enumerating homomorphisms and filtering);
    intended for the small structures where isomorphism matters here, such
    as cores. *)

val isomorphic : Structure.t -> Structure.t -> bool
