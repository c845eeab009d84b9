(** Line/column positions in parsed text, shared by every parser in the
    stack so error messages can point at the offending token.  Lines and
    columns are 1-based. *)

type t = { line : int; col : int }

val start : t
(** Line 1, column 1. *)

val to_string : t -> string
(** ["line L, column C"]. *)
