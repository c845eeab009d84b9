(** Sandboxed worker processes: the process-death isolation boundary.

    {!Server.handle_line} (PR 6) made the request loop total against
    {e exceptions}; this module extends the boundary to {e process
    death}.  The decision procedure is NP-hard, so some requests will
    blow past any in-process budget in ways [Budget.tick] cannot catch —
    a pebble-encoding allocation that OOMs before the next tick, runaway
    CPU inside a C-speed loop, a stack overflow that segfaults the
    native runtime, or a genuine solver bug.  Each solve therefore runs
    in a forked child capped by [setrlimit] (RLIMIT_AS, RLIMIT_CPU) and
    supervised by a parent-side wall-clock watchdog; the child returns
    its complete response over a length-prefixed pipe frame and exits.

    The parent classifies every child death into a
    {!Core.Error.crash_class} — signal, OOM, CPU rlimit, watchdog
    timeout, protocol garbage (half-written frame), nonzero exit — and
    {!supervise} turns the classification into policy: one automatic
    retry with a degraded budget and halved time limits, then a typed
    [worker_crash] response (code 6) plus a crash-dump artifact for
    [cqc triage].  A worker death costs one typed error response, never
    the daemon.

    Fork safety: the child immediately detaches telemetry and re-creates
    the fault-injection mutex ({!Telemetry.detach_after_fork},
    {!Fault.relock_after_fork}) because either lock may have been held
    at fork time by a parent thread that no longer exists.  No library
    below serve keeps state between calls (the Schaefer classifier and
    the preprocess shrink compute from their input), so no deeper lock
    is left for a child to inherit; should one ever be held at fork, the
    watchdog reaps the child — fork-safety failures are survivable by
    construction, not assumed away. *)

type limits = {
  mem_bytes : int option;  (** RLIMIT_AS ceiling, bytes. *)
  cpu_seconds : int option;  (** RLIMIT_CPU ceiling, whole seconds. *)
  wall_seconds : float;  (** Parent-side watchdog deadline. *)
}

val default_limits : limits
(** 1 GiB address space, 20 s CPU, 30 s wall clock. *)

val degraded_limits : limits -> limits
(** The retry's limits: CPU and wall clock halved (wall floored at
    0.5 s), memory unchanged. *)

val execute :
  limits:limits ->
  id:Json.t ->
  (unit -> Json.t) ->
  (Json.t, Core.Error.crash_class * string) result
(** [execute ~limits ~id compute] runs [compute] in a sandboxed forked
    child and returns its response frame, or the classification of its
    death.  Total: never raises (even a failed [fork] is classified).
    Exceptions {e inside} [compute] do not count as crashes — the child
    converts them to typed responses via {!Protocol.error_of_exn}, so
    only process death (or a child-detected OOM) reaches the [Error]
    arm.  The [worker] fault site is consulted once per fork; a firing
    draw SIGKILLs the fresh child. *)

(** {2 The supervised pool} *)

type pool

val create_pool : ?limits:limits -> ?retry_nodes:int -> unit -> pool
(** [retry_nodes] (default 20000) is the degraded node budget the
    retry's compute closure should clamp to; exposed via
    {!retry_nodes}. *)

val pool_limits : pool -> limits

val retry_nodes : pool -> int

type stats = {
  live : int;  (** Children currently forked and not yet reaped. *)
  spawned : int;
  completed : int;  (** Attempts that returned a non-crash response. *)
  retries : int;  (** First-crash restarts with a degraded budget. *)
  dumps : int;  (** Crash dumps spooled. *)
  crashes_total : int;
  crashes_signal : int;
  crashes_oom : int;
  crashes_cpu : int;
  crashes_watchdog : int;
  crashes_protocol : int;
  crashes_exit : int;
}

val stats : pool -> stats

val supervise :
  pool ->
  id:Json.t ->
  dump:
    (crash:Core.Error.crash_class ->
    detail:string ->
    attempts:int ->
    string option) ->
  (degraded:bool -> Json.t) ->
  Json.t
(** [supervise pool ~id ~dump compute] is the crash policy around
    {!execute}: run [compute ~degraded:false] under the pool limits; on
    a crash, retry once with {!degraded_limits} and
    [compute ~degraded:true]; on a second crash, call [dump] (which
    writes the spool artifact and returns its path, or [None]), and
    answer a typed [worker_crash] response carrying the crash class and,
    when spooled, the ["dump"] path.  Bumps the pool counters and the
    [serve.worker.*] telemetry counters.  Total: never raises ([dump]
    exceptions are swallowed into [None]).

    A crash is a child death or a typed [worker_crash] answer: the
    answer itself, or any element of a [Json.List] answer (a compute
    answering for several requests, one of which ran out of memory). *)

val test_abort_hook : Relational.Structure.t -> unit
(** Test-only crash synthesis, consulted by the sandboxed compute
    closure just before solving.  When [CQCSP_TEST_ABORT=action:REL] is
    set {e and} the source structure has at least one tuple in relation
    [REL], the worker kills itself: [segv]/[abrt]/[kill] raise the
    corresponding signal, [exit] calls [_exit 3], [spin] burns CPU until
    a rlimit or the watchdog fires.  A no-op in every other case, so
    production traffic can never trip it accidentally; because the hook
    runs inside the child, even an armed hook can only cost one typed
    response. *)
