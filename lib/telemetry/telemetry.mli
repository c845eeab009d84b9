(** Structured telemetry for the solver stack: named counters, accumulated
    timers and per-phase spans, delivered to a pluggable sink.

    The module sits below every other library so that any layer — the
    propagation kernel, the pebble engine, Datalog evaluation, the Schaefer
    routes, the dispatcher — can report operation counts ("joins probed,
    supports decremented": the machine-independent unit of measurement)
    without new dependencies.

    Telemetry is {e off by default}: no sink is installed, {!enabled}
    answers [false], and every instrumentation entry point reduces to one
    branch — no clock reads, no allocation, no formatting.  Overhead with
    telemetry off is measured by bench experiment E18 and guarded in CI.

    State is domain-safe: the counter and timer totals and the sink are
    process-global, every mutation and emission guarded by one mutex,
    while the span stack is {e domain-local} — spans opened on a worker
    domain nest among themselves and attribute their counter deltas to
    that domain's own enclosing spans, merging into the global totals
    (and, at close, into that domain's parent span) under the lock.
    Install and drain sinks from the main domain only. *)

(** {1 Data model} *)

type value = Int of int | Float of float | Bool of bool | String of string

type record =
  | Span of {
      name : string;
      elapsed_s : float;  (** Wall-clock duration of the span. *)
      fields : (string * value) list;
          (** Attributes attached when the span ended (route, outcome, …). *)
      counters : (string * int) list;
          (** Counter increments attributed to this span: every {!count}
              performed while it was open, including by nested spans. *)
    }
  | Counter of { name : string; total : int }
      (** A process-lifetime counter total, emitted by {!flush}. *)
  | Timer of { name : string; seconds : float; count : int }
      (** An accumulated {!time} total, emitted by {!flush}. *)

val json_of_record : record -> string
(** One-line JSON rendering (the JSONL sink's format):
    [{"type":"span",...}], [{"type":"counter",...}], [{"type":"timer",...}]. *)

(** {1 Sinks} *)

module Sink : sig
  type t

  val memory : unit -> t * (unit -> record list)
  (** An in-memory sink for tests and for building one-document metrics
      reports: the second component drains the records collected so far,
      in emission order. *)

  val jsonl : out_channel -> t
  (** Streams each record as one JSON line.  [flush] flushes the channel
      (the caller closes it). *)

  val tee : t -> t -> t
  (** Duplicates every record (and flush) to both sinks, first then
      second. *)
end

val set_sink : Sink.t option -> unit
(** Install a sink ([Some]) or disable telemetry ([None], the initial
    state).  Installing a sink does not clear totals; call {!reset} for a
    fresh slate.  Any spans left open by a previous client are discarded. *)

val enabled : unit -> bool

val detach_after_fork : unit -> unit
(** Disable telemetry {e without} taking the module lock.  For freshly
    forked children only: the lock may have been held at fork time by a
    parent thread that no longer exists, so the ordinary {!set_sink}
    could deadlock.  The child is single-threaded, making the direct
    write safe; afterwards every instrumentation call takes the
    lock-free disabled path. *)

(** {1 Counters}

    Counters are named monotone totals ("ac.kills", "pebble.deaths");
    naming scheme: [<layer>.<what>], lowercase, dot-separated (see
    DESIGN.md section 12).  When a span is open, increments are also
    attributed to it, so a dispatcher-route span carries exactly the
    engine work done on that route's behalf. *)

val count : string -> int -> unit
(** [count name n] adds [n] to counter [name].  No-op when disabled. *)

val counter_total : string -> int
(** Current total of one counter (0 if never bumped). *)

val counter_totals : unit -> (string * int) list
(** All counter totals, sorted by name. *)

(** {1 Timers} *)

val time : string -> (unit -> 'a) -> 'a
(** [time name f] runs [f], accumulating its wall-clock duration into
    timer [name].  When disabled, applies [f] directly — no clock reads.
    Exception-safe: the elapsed time is recorded even when [f] raises. *)

val timer_totals : unit -> (string * (float * int)) list
(** All timer totals [(seconds, invocations)], sorted by name. *)

(** {1 Spans} *)

type span

val begin_span : string -> span option
(** Open a span; [None] when disabled (pass it to {!end_span} regardless).
    Spans nest: counters bumped while a span is open are attributed to the
    innermost open span and, when it ends, rolled up into its parent. *)

val end_span : ?fields:(string * value) list -> span option -> (string * int) list
(** Close the span, emit its {!record.Span} to the sink, and return its
    attributed counter increments (sorted by name; [[]] when disabled).
    Spans opened after [span] and not yet closed are discarded (an
    exception unwound past them).  Closing a span that is not open is a
    no-op. *)

val with_span : string -> ?fields:(string * value) list -> (unit -> 'a) -> 'a
(** [with_span name f] wraps [f] in a span.  Exception-safe: the span is
    ended (and emitted) even when [f] raises — including
    [Budget.Exhausted] escapes, so sinks see every partial phase. *)

(** {1 Lifecycle} *)

val flush : unit -> unit
(** Emit one {!record.Counter} per counter and one {!record.Timer} per
    timer (current totals), then flush the sink.  No-op when disabled. *)

val reset : unit -> unit
(** Clear all counter and timer totals and discard any open spans.  The
    sink, if any, stays installed.  For tests and benchmark harnesses. *)
