(** Cooperative resource budgets for the solver stack.

    A budget carries a search-node limit, a wall-clock deadline and a
    cooperative cancellation flag.  Solvers call {!tick} once per unit of
    work (a search-tree node, a generated configuration, a bag assignment);
    when any limit is hit the budget raises {!Exhausted}, which the caller
    — typically [Core.Solver] — catches at a route boundary and converts
    into a degraded three-valued answer.

    [tick] is cheap: a node-limit comparison per call, with the clock and
    the cancellation flag polled only every few hundred ticks.  Budgets are
    single-domain mutable values; do not share one across domains — give
    each domain its own budget built with {!racer} and merge the spend
    back with {!charge}.  The strided clock behind [tick] is
    domain-local, so ticking distinct budgets on distinct domains is
    race-free. *)

type exhausted_reason =
  | Node_limit  (** The node allowance was consumed. *)
  | Deadline  (** The wall-clock deadline passed. *)
  | Cancelled  (** The cooperative cancellation flag was raised. *)

val reason_to_string : exhausted_reason -> string

exception Exhausted of exhausted_reason

type t

val unlimited : t
(** The no-op budget: never exhausts.  This is the default everywhere a
    [?budget] parameter is omitted, so unbudgeted behavior is unchanged. *)

val create :
  ?max_nodes:int -> ?timeout:float -> ?cancel:bool ref -> unit -> t
(** [create ?max_nodes ?timeout ?cancel ()] is a fresh budget allowing at
    most [max_nodes] ticks, expiring [timeout] seconds of wall clock from
    now, and exhausting as soon as [!cancel] becomes true.  All three are
    optional; omitting all of them yields a fresh unlimited budget.
    @raise Invalid_argument if [max_nodes < 0] or [timeout < 0]. *)

val is_unlimited : t -> bool
(** No node limit, no deadline, no cancellation flag. *)

val spent : t -> int
(** Ticks consumed so far (including those of any {!slice} children). *)

val remaining_nodes : t -> int option
(** [None] when there is no node limit. *)

val status : t -> exhausted_reason option
(** Non-raising probe: the reason the budget is exhausted, if it is.
    Cancellation takes precedence over the deadline, which takes precedence
    over the node limit. *)

val check : t -> unit
(** Probe all three limits (including the clock, unconditionally).
    @raise Exhausted when any limit is hit.  Call at phase boundaries. *)

val tick : t -> unit
(** Consume one node of the allowance, then check cheaply: the
    cancellation flag is polled every 256 ticks and the deadline is
    probed against a strided clock — a process-wide cache of
    [Unix.gettimeofday] that performs a real read only every N probes,
    with N self-calibrated so consecutive real reads are ~2ms apart.
    The cached time is always [<=] real time, so a deadline can fire at
    most one stride (well under 10ms) late but never early.  {!check}
    and {!status} still read the clock exactly.
    @raise Exhausted when a limit is hit.  Call once per unit of work in
    inner loops. *)

val clock_reads : unit -> int
(** Number of real [Unix.gettimeofday] calls made by deadline probes
    (strided and exact) since start-up or {!reset_clock_stats}, summed
    over all domains.  For tests and bench experiments demonstrating the
    strided clock: compare against ticks consumed to see the syscall
    reduction. *)

val reset_clock_stats : unit -> unit
(** Reset {!clock_reads} to zero and drop the *calling domain's*
    strided-clock cache and calibration, forcing its next probe to
    perform a real read.  Other domains' caches decay on their own. *)

val slice : t -> ?max_nodes:int -> ?timeout:float -> unit -> t
(** [slice parent ?max_nodes ?timeout ()] is a child budget for one phase
    of a larger computation: its node limit is [max_nodes] capped by the
    parent's remaining allowance, its deadline the earlier of [timeout]
    from now and the parent's, and it shares the parent's cancellation
    flag.  Ticks on the child also count against the parent, so exhausting
    the parent exhausts every child.  Slicing {!unlimited} just creates an
    independent budget.  A slice ticks its parent on every tick, so it
    must stay on the parent's domain — use {!racer} to hand work to
    another domain. *)

val racer : t -> cancel:bool ref -> t
(** [racer parent ~cancel] is an independent budget for one competitor
    in a parallel race: its node allowance is the parent's remaining
    allowance (each racer gets the full remainder — the race is expected
    to cancel the losers, and actual spend is reconciled with {!charge}),
    its deadline is the parent's absolute deadline, and it exhausts with
    [Cancelled] when [!cancel] becomes true {e or} when the parent's own
    cancellation flag fires (the user's flag is reachable through a
    private, node-less upstream link, so nothing mutable is shared
    between racers or with the parent).  Safe to tick on a different
    domain than the parent's. *)

val charge : t -> int -> unit
(** [charge t n] adds [n] already-performed ticks to [t]'s node count
    and, transitively, its parents'.  Never raises — it is bookkeeping
    for work a {!racer} (or a sandboxed worker) did elsewhere, applied
    after the fact on the owning domain; a subsequent {!tick} or
    {!check} surfaces any limit the merged spend crossed. *)
