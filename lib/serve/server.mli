(** The long-lived solving daemon: a JSONL request loop that is
    crash-proof by construction.

    {2 Isolation boundary}

    Every frame is processed by {!handle_line}, which {e never raises}
    and always returns exactly one response line: any exception — a JSON
    or structure-text parse error, [Budget.Exhausted], a certificate
    rejection, an injected {!Fault.Injected}, or something genuinely
    unforeseen — is caught at the request boundary, classified through
    {!Core.Error.of_exn} into the documented taxonomy, and rendered as a
    typed error response (codes 2/3/4/5 mirroring the CLI exit codes).
    If even response serialization fails (the [respond] fault site), a
    pre-rendered constant line is emitted.  The loop around the handler
    therefore cannot die on request content.

    {2 Budgets, admission, shutdown}

    Each request solves under its own {!Core.Budget} built from the
    request's [max_nodes]/[timeout] clamped by the server-wide ceilings,
    and sharing the server's cancel flag: SIGINT/SIGTERM set the flag, so
    in-flight solves unwind promptly with [Budget.Exhausted Cancelled]
    (answered as typed responses — the drain), queued requests are
    released, and the loop exits cleanly.  Admission control bounds
    concurrent solves ([max_inflight]) and the backpressure queue
    ([max_queue]); beyond both, requests are shed with a typed [shed]
    response instead of accumulating unbounded work.

    {2 Sandboxed workers}

    With a {!Worker.pool} configured, every solve runs in a forked child
    under rlimits and a wall-clock watchdog ({!Worker.supervise}): one
    crash triggers a degraded retry, a second yields a typed
    [worker_crash] response (code 6) and — when a spool directory is
    configured — a crash-dump artifact for [cqc triage].  The cache
    lookup stays in the parent so warm template indexes are shared
    copy-on-write with every child. *)

type config = {
  cache : Cache.t;
  ceiling_nodes : int option;  (** Server-wide cap on per-request nodes. *)
  ceiling_timeout : float option;  (** Cap on per-request seconds. *)
  default_nodes : int option;  (** Used when a request names no budget. *)
  default_timeout : float option;
  cancel : bool ref;  (** Shared by every request budget. *)
  max_frame_bytes : int;  (** Frames longer than this are rejected. *)
  admit : unit -> [ `Go | `Shed of string | `Cancelled ];
      (** Admission decision for work-bearing ops (solve, contain,
          enumerate); [`Go] must be paired with a later [release]. *)
  release : unit -> unit;
  sandbox : Worker.pool option;
      (** When set, solves run in forked sandboxed workers. *)
  spool_dir : string option;
      (** Where terminal crashes spool their dump artifacts; [None]
          disables dumps (crash responses still carry the class). *)
  threads : int;
      (** Portfolio-racing width for in-process solves.  Forked sandbox
          workers always solve with [threads = 1]: fork and domains do
          not mix, so racing only applies to [--no-sandbox] daemons and
          stdio sessions. *)
  preprocess : bool;
      (** Run the source-side shrinking pipeline inside each solve (the
          target side is cored once per cached template regardless of
          this flag — see {!Cache.create}, which the daemon constructs
          with the same value). *)
  latency : Latency.t;
      (** Per-route solve-latency histograms, surfaced by the [stats]
          op and (via telemetry counters) [--metrics-json]. *)
}

val default_config : ?cache_capacity:int -> ?preprocess:bool -> unit -> config
(** Unlimited budgets, 1 MiB frames, admit-everything admission; the
    building block for tests and for {!run}'s real config.
    [preprocess] (default [true]) governs both the per-request source
    shrink and the cache's per-template coring. *)

val handle_line : ?emit:(string -> unit) -> config -> string -> string
(** Process one frame (without its newline); returns one response line
    (without a newline).  Total: never raises, never blocks on anything
    but the solve itself.

    [emit] (default: drop) receives the {e intermediate} response lines
    of a streamed [enumerate] request — zero or more ["answers"] frames,
    each a batch of witnesses — before the returned line closes the
    stream with the ["final"] frame (or a typed error: an exception
    mid-stream, e.g. budget exhaustion, leaves already-emitted frames
    standing and terminates the stream with the error response).  Under
    a sandbox pool the child accumulates the frames and the parent
    replays them, so [emit] never crosses the fork.  All other ops
    ignore [emit] entirely.

    A frame that is a JSON {e array} of request objects is a {e batch}:
    its response line is the JSON array of the members' responses, in
    order.  The batch passes admission once as a unit, and members
    solving against the same template (identical [target] text for
    solve, identical [q1] text for contain) share one template-cache
    resolution and — when sandboxed — one forked worker, so N queries
    against the same structure cost one cache lookup and one fork.
    Member failures (bad member shape, bad structure text, a terminal
    worker crash taking down the group, one member running out of
    memory on both attempts) are answered per member with the usual
    typed error objects; batches are limited to 64 members, and may
    not carry [enumerate].

    A single solve or contain frame is a batch of one: it takes the
    same path and answers what the one-member array frame answers,
    unwrapped.  Every
    work-bearing request (solve, contain, enumerate) passes admission
    and the in-process-or-sandboxed split at one point each. *)

type socket_mode = Unix_socket of string | Stdio

type options = {
  mode : socket_mode;
  max_inflight : int;
  max_queue : int;
  cache_capacity : int;
  opt_ceiling_nodes : int option;
  opt_ceiling_timeout : float option;
  opt_default_nodes : int option;
  opt_default_timeout : float option;
  opt_max_frame_bytes : int;
  opt_sandbox : bool;  (** Fork a sandboxed worker per solve. *)
  opt_sandbox_mem_bytes : int option;  (** RLIMIT_AS; [None] inherits. *)
  opt_sandbox_cpu_seconds : int option;  (** RLIMIT_CPU; [None] inherits. *)
  opt_sandbox_wall_seconds : float;  (** Watchdog deadline. *)
  opt_spool_dir : string option;  (** Crash-dump spool directory. *)
  opt_threads : int;  (** In-process portfolio-racing width (min 1). *)
  opt_warm_manifest : string option;
      (** Template manifest pre-analysed into the cache at startup: one
          structure-file path per line, [#] comments and blank lines
          skipped, relative paths resolved against the manifest's
          directory.  An unreadable or unparsable entry fails startup
          loudly (startup is outside the isolation boundary). *)
  opt_preprocess : bool;
      (** [false] disables both the per-request source shrink and the
          cache's per-template coring ([--no-preprocess]). *)
}

val run : options -> int
(** Run the daemon until SIGINT/SIGTERM (or, under [Stdio], end of
    input); returns the process exit code (0 on clean shutdown).  Arms
    fault injection from [CQCSP_FAULT] on entry.
    @raise Core.Error.Error on startup failures (socket in use, bad
    fault spec) — startup is {e outside} the isolation boundary on
    purpose: a misconfigured daemon must fail loudly, not serve. *)
