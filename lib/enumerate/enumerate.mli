open Relational

(** Streaming homomorphism enumeration and overflow-safe counting.

    The decision engine answers yes/no; production query evaluation wants
    the witnesses themselves.  Following {e Enumerating Homomorphisms}
    (Bulatov–Dalmau–Grohe–Marx), the tractable routes admit
    polynomial-delay enumeration, and this module dispatches on the same
    structural hierarchy as {!Core.Solver}:

    + {b acyclic source} — the {!Treewidth.Join_eval} pass over the GYO
      join forest, keeping every candidate tuple per parent-shared key,
      then a backtrack-free descent: the bottom-up pass keeps a tuple
      only when every child stores something under the key it induces,
      so every bucket the descent looks up is non-empty and the delay
      between consecutive answers is polynomial (one bucket lookup per
      fact);
    + {b bounded treewidth} — the same pass and descent over a tree
      decomposition, keeping every consistent bag assignment per
      parent-shared key;
    + {b general fallback} — the budget/telemetry-metered MAC
      backtracking search, pulled through
      {!Relational.Homomorphism.search_seq}.

    All three produce a [Seq.t] that materializes one answer at a time —
    constant space per answer beyond the suspended producer state — so
    answer sets larger than memory stream.  Sequences are {b ephemeral}:
    force each node at most once.

    {b Preprocessing:} enumeration and counting bypass the
    {!Preprocess} shrinking pipeline entirely except for the one shrink
    that is count-compatible: connected-component decomposition with
    textual deduplication.  Homomorphism counts are {e not} invariant
    under core retraction (folding an element can merge distinct
    witnesses), but a disconnected source factors exactly:
    [#hom(A, B) = Π_parts #hom(piece, B) ^ copies], each factor and
    power computed with overflow-checked arithmetic. *)

type route =
  | Acyclic  (** Join-forest tables + backtrack-free buckets. *)
  | Bounded_treewidth of int  (** Bag tables at this width, read the same way. *)
  | Backtracking  (** General MAC search, streamed. *)

val route_name : route -> string
(** Stable machine-readable names: ["acyclic-stream"],
    ["treewidth-stream(w)"], ["backtracking-stream"]. *)

type plan = {
  route : route;
  seq : Homomorphism.mapping Seq.t;
      (** Ephemeral stream of homomorphisms, each a fresh array. *)
}

val plan :
  ?max_width:int ->
  ?budget:Budget.t ->
  ?pool:Parallel.Pool.t ->
  Structure.t ->
  Structure.t ->
  plan
(** Choose the cheapest applicable enumeration route for [A -> B] and
    return its lazy stream.  [max_width] (default 3, matching
    {!Core.Solver}) caps the treewidth route; [pool] shards the root
    arc-consistency establish on the backtracking route.  Route choice
    and stream construction are cheap; all real work happens as the
    sequence is forced.
    @raise Budget.Exhausted from forcing the node that exhausts
    [budget] (ticked per candidate considered and per answer). *)

val stream :
  ?max_width:int ->
  ?limit:int ->
  ?budget:Budget.t ->
  ?pool:Parallel.Pool.t ->
  Structure.t ->
  Structure.t ->
  Homomorphism.mapping Seq.t
(** [(plan a b).seq], truncated to [limit] answers when given. *)

val count :
  ?max_width:int -> ?budget:Budget.t -> Structure.t -> Structure.t -> int
(** Exact number of homomorphisms [A -> B] without enumerating them
    when a tractable route applies: connected-component product rule
    (deduplicated components raised to their multiplicity) over
    per-component sum-product counting — join-forest DP for acyclic
    components, tree-decomposition DP for bounded treewidth, exhaustive
    backtracking otherwise.  Never applies folding or core retraction:
    those shrinks do not preserve counts.  All arithmetic is
    overflow-checked.
    @raise Homomorphism.Count_overflow when the total leaves the native
    [int] range.
    @raise Budget.Exhausted when [budget] runs out. *)
