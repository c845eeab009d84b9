(** Structured error taxonomy for the whole stack.

    The library layers signal precondition violations with
    [Invalid_argument], parse failures with their parsers' [Parse_error]
    exceptions, and budget exhaustion with {!Budget.Exhausted}.  This
    module folds all of them into one sum so front ends ([bin/cqc.ml], a
    future service) can map every failure to a distinct, documented exit
    code instead of dying with a raw backtrace.

    Exit-code contract (used by [cqc]):
    - [0] — success;
    - [2] — {!Bad_input}: malformed query/structure text, violated
      precondition, unreadable file;
    - [3] — {!Unsupported}: the input is well-formed but outside the
      capabilities of the requested algorithm;
    - [4] — {!Budget_exhausted}: every route ran out of budget; the answer
      is [Unknown], not wrong;
    - [5] — {!Internal}: a bug in this code base.  Please report it;
    - [6] — {!Worker_crash}: a sandboxed worker process died (OOM kill,
      rlimit, watchdog timeout, genuine solver crash) and the retry died
      too.  The daemon survives; the request gets this typed answer. *)

(** How a sandboxed worker process died, as classified by the parent-side
    supervisor from [waitpid] status, rlimit knowledge and the watchdog.
    Signal numbers use the OCaml [Sys] encoding. *)
type crash_class =
  | Crash_signal of int
      (** Killed by a signal that is not otherwise classified — SIGSEGV,
          SIGABRT, SIGKILL (chaos kill or the kernel OOM killer), … *)
  | Crash_oom  (** Allocation failed under the sandbox memory ceiling. *)
  | Crash_cpu  (** The RLIMIT_CPU ceiling fired (SIGXCPU). *)
  | Crash_watchdog
      (** The parent's wall-clock watchdog expired and killed the child. *)
  | Crash_protocol
      (** The child's result pipe carried garbage or a half-written
          frame: the child died mid-write, or wrote something that is not
          a length-prefixed JSON response. *)
  | Crash_exit of int  (** The child exited with a nonzero code. *)

val crash_class_name : crash_class -> string
(** Stable machine-readable class: ["signal"], ["oom"], ["cpu"],
    ["watchdog"], ["protocol"] or ["exit"] — the crash-triage key used by
    dumps, the [stats] op and telemetry counters. *)

val crash_class_of_name : string -> crash_class option
(** Inverse of {!crash_class_name} (signal/exit payloads default to 0);
    used when replaying crash dumps. *)

val signal_name : int -> string
(** ["SIGSEGV"], ["SIGKILL"], … for OCaml [Sys] signal numbers; falls
    back to ["signal N"]. *)

type t =
  | Bad_input of string
  | Unsupported of string
  | Budget_exhausted of Relational.Budget.exhausted_reason
  | Internal of string
  | Worker_crash of { crash : crash_class; attempts : int; detail : string }
      (** A sandboxed worker died [attempts] times on this request (the
          supervisor retries once with a degraded budget before giving
          up). *)

exception Error of t

val bad_input : ('a, Format.formatter, unit, 'b) format4 -> 'a
(** Raise {!Error} with a formatted {!Bad_input}. *)

val unsupported : ('a, Format.formatter, unit, 'b) format4 -> 'a

val internal : ('a, Format.formatter, unit, 'b) format4 -> 'a

val of_exn : exn -> t option
(** Classify an exception raised by any library layer: parse errors and
    [Invalid_argument] become {!Bad_input}, [Budget.Exhausted] becomes
    {!Budget_exhausted}, [Sys_error] and [Unix.Unix_error] (file and
    socket IO) become {!Bad_input}, [Failure], [Not_found] and
    [Assert_failure] become {!Internal}; [None] for anything unrecognized
    (asynchronous exceptions must keep flying). *)

val guard : (unit -> 'a) -> ('a, t) result
(** Run a thunk, converting every exception recognized by {!of_exn} into
    [Error]; unrecognized exceptions are re-raised. *)

val to_string : t -> string

val exit_code : t -> int
(** The documented process exit code for this error class. *)

val kind_name : t -> string
(** The stable machine-readable class name, used by the serve protocol's
    typed error responses: ["bad_input"], ["unsupported"],
    ["budget_exhausted"], ["internal"] or ["worker_crash"]. *)
