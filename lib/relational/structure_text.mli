(** A line-oriented text format for structures, for files and CLI use:

    {v
      # 2-colorability target
      size 2
      rel E 2
      E 0 1
      E 1 0
    v}

    [size N] must come first; optional [rel NAME ARITY] lines declare
    relations (required for relations with no facts); remaining lines are
    facts.  [#] starts a comment; blank lines are ignored. *)

exception Parse_error of Source_position.t * string
(** Parse failure at the given (1-based) line/column. *)

val parse : string -> Structure.t
(** @raise Parse_error on malformed input, located at the offending
    token. *)

val print : Structure.t -> string
(** Canonical text (parses back to an equal structure). *)
