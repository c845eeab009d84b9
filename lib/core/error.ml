type crash_class =
  | Crash_signal of int
  | Crash_oom
  | Crash_cpu
  | Crash_watchdog
  | Crash_protocol
  | Crash_exit of int

let crash_class_name = function
  | Crash_signal _ -> "signal"
  | Crash_oom -> "oom"
  | Crash_cpu -> "cpu"
  | Crash_watchdog -> "watchdog"
  | Crash_protocol -> "protocol"
  | Crash_exit _ -> "exit"

let crash_class_of_name = function
  | "signal" -> Some (Crash_signal 0)
  | "oom" -> Some Crash_oom
  | "cpu" -> Some Crash_cpu
  | "watchdog" -> Some Crash_watchdog
  | "protocol" -> Some Crash_protocol
  | "exit" -> Some (Crash_exit 0)
  | _ -> None

let signal_name n =
  if n = Sys.sigsegv then "SIGSEGV"
  else if n = Sys.sigkill then "SIGKILL"
  else if n = Sys.sigabrt then "SIGABRT"
  else if n = Sys.sigbus then "SIGBUS"
  else if n = Sys.sigfpe then "SIGFPE"
  else if n = Sys.sigill then "SIGILL"
  else if n = Sys.sigterm then "SIGTERM"
  else if n = Sys.sigint then "SIGINT"
  else if n = Sys.sigxcpu then "SIGXCPU"
  else if n = Sys.sigxfsz then "SIGXFSZ"
  else Printf.sprintf "signal %d" n

let describe_crash = function
  | Crash_signal n -> "killed by " ^ signal_name n
  | Crash_oom -> "out of memory under the sandbox ceiling"
  | Crash_cpu -> "CPU rlimit exceeded"
  | Crash_watchdog -> "wall-clock watchdog timeout"
  | Crash_protocol -> "result-pipe protocol garbage"
  | Crash_exit c -> Printf.sprintf "exited with code %d" c

type t =
  | Bad_input of string
  | Unsupported of string
  | Budget_exhausted of Relational.Budget.exhausted_reason
  | Internal of string
  | Worker_crash of { crash : crash_class; attempts : int; detail : string }

exception Error of t

let bad_input fmt = Format.kasprintf (fun msg -> raise (Error (Bad_input msg))) fmt

let unsupported fmt = Format.kasprintf (fun msg -> raise (Error (Unsupported msg))) fmt

let internal fmt = Format.kasprintf (fun msg -> raise (Error (Internal msg))) fmt

let located what { Relational.Source_position.line; col } msg =
  Printf.sprintf "%s at line %d, column %d: %s" what line col msg

let of_exn = function
  | Error e -> Some e
  | Relational.Structure_text.Parse_error (pos, msg) ->
    Some (Bad_input (located "bad structure" pos msg))
  | Cq.Parser.Parse_error (pos, msg) -> Some (Bad_input (located "bad query" pos msg))
  | Datalog.Parser.Parse_error msg -> Some (Bad_input ("bad program: " ^ msg))
  | Folog.Fo_parser.Parse_error msg -> Some (Bad_input ("bad formula: " ^ msg))
  | Relational.Budget.Exhausted reason -> Some (Budget_exhausted reason)
  | Relational.Homomorphism.Count_overflow ->
    Some
      (Unsupported
         "the homomorphism count exceeds the native 63-bit integer range")
  | Schaefer.Booleanize.Decode_rejected { bits; source_size; target_size; clamped; _ } ->
    Some
      (Internal
         (Printf.sprintf
            "booleanized decode rejected: the decoded mapping (%d-bit encoding, \
             |A| = %d, |B| = %d, %d clamped code%s) is not a homomorphism"
            bits source_size target_size clamped (if clamped = 1 then "" else "s")))
  | Invalid_argument msg -> Some (Bad_input msg)
  | Sys_error msg -> Some (Bad_input msg)
  | Unix.Unix_error (err, fn, arg) ->
    (* File/socket IO failures (ENOENT, EISDIR, EACCES, ECONNREFUSED, …)
       are the caller's environment, not our bug: the same class as an
       unreadable structure file. *)
    Some
      (Bad_input
         (Printf.sprintf "%s%s: %s" fn
            (if arg = "" then "" else " " ^ arg)
            (Unix.error_message err)))
  | Failure msg -> Some (Internal msg)
  | Not_found -> Some (Internal "Not_found escaped")
  | Assert_failure (file, line, _) ->
    Some (Internal (Printf.sprintf "assertion failed at %s:%d" file line))
  | _ -> None

let guard f =
  match f () with
  | v -> Ok v
  | exception e -> ( match of_exn e with Some t -> Result.Error t | None -> raise e)

let to_string = function
  | Bad_input msg -> "bad input: " ^ msg
  | Unsupported msg -> "unsupported: " ^ msg
  | Budget_exhausted reason ->
    "budget exhausted (" ^ Relational.Budget.reason_to_string reason ^ ")"
  | Internal msg -> "internal error (please report): " ^ msg
  | Worker_crash { crash; attempts; detail } ->
    Printf.sprintf "worker crashed (%s, %d attempt%s): %s"
      (describe_crash crash) attempts
      (if attempts = 1 then "" else "s")
      detail

let exit_code = function
  | Bad_input _ -> 2
  | Unsupported _ -> 3
  | Budget_exhausted _ -> 4
  | Internal _ -> 5
  | Worker_crash _ -> 6

let kind_name = function
  | Bad_input _ -> "bad_input"
  | Unsupported _ -> "unsupported"
  | Budget_exhausted _ -> "budget_exhausted"
  | Internal _ -> "internal"
  | Worker_crash _ -> "worker_crash"
