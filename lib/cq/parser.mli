(** Parser for conjunctive queries in rule syntax, e.g.

    {[ Q(X1, X2) :- P(X1, Z1, Z2), R(Z2, Z3), R(Z3, X2). ]}

    Identifiers match [[A-Za-z_][A-Za-z0-9_']*]; the trailing period is
    optional; a nullary head may be written [Q() :- ...] or [Q :- ...]. *)

exception Parse_error of Relational.Source_position.t * string
(** Parse failure at the given (1-based) line/column. *)

val parse : string -> Query.t
(** @raise Parse_error on malformed input, located at the offending
    token. *)
