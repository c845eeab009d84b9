(** The repository's one JSON library: a minimal JSON tree with one
    writer and a hardened parser.  The serve protocol's frames, the
    telemetry records and the CLI's metrics document, and the bench's
    [BENCH_*.json] rows are all [t] values written by {!to_string}.  The
    parser (depth cap, strict escapes) makes adversarial frames surface
    as {!Parse_error}, never as a stack overflow or an uncaught exception
    deeper in the daemon. *)

type t =
  | Null
  | Bool of bool
  | Int of int
  | Float of float
  | String of string
  | List of t list
  | Obj of (string * t) list

exception Parse_error of string
(** Malformed input, with a byte offset in the message. *)

val parse : ?max_bytes:int -> string -> t
(** Parse one complete JSON value; trailing non-whitespace is an error.
    Nesting is capped (adversarial [\[\[\[…] frames fail cleanly), and an
    input longer than [max_bytes] is rejected before any parsing work —
    the length cap belongs to the parser so every caller (the server
    read loops, the worker result pipe, dump replay) gets it uniformly.
    @raise Parse_error on malformed input. *)

val to_string : t -> string
(** One-line rendering; strings are escaped, floats use a round-tripping
    format, NaN/infinity render as [null] (JSON has no spelling for
    them). *)

val member : string -> t -> t option
(** Field lookup in an [Obj]; [None] on absent fields and non-objects. *)

val string_member : string -> t -> string option
val int_member : string -> t -> int option
val float_member : string -> t -> float option
(** [float_member] accepts both [Int] and [Float] fields. *)

val bool_member : string -> t -> bool option
