(** Process resource limits, for the worker sandbox.

    A thin binding over [setrlimit(2)] (which the standard Unix library
    does not expose).  All functions are best-effort by design: they
    return [Ok ()] or [Error errno_message] and never raise, because
    they run in a freshly forked child where an exception would bypass
    the worker result protocol — and because a sandbox that cannot
    lower a limit is still supervised by the parent-side watchdog. *)

type resource =
  | Address_space  (** RLIMIT_AS, in bytes: caps every allocation path. *)
  | Cpu_time  (** RLIMIT_CPU, in seconds: the kernel sends SIGXCPU. *)

val set : resource -> int -> (unit, string) result
(** [set r v] sets both the soft and hard limit of [r] to [v]
    (bytes for {!Address_space}, whole seconds for {!Cpu_time}). *)
