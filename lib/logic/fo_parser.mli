(** Parser for first-order formulas:

    {v
      exists x. exists y. E(x, y) & ~(x = y) | forall z. E(z, z)
    v}

    Grammar (loosest binding first): [|] , [&] , [~] , quantifiers
    ([exists v.] / [forall v.] extend to the right as far as possible),
    atoms [R(x, y)], equality [x = y], [true], [false], parentheses. *)

exception Parse_error of string

val parse : string -> Formula.t
(** @raise Parse_error on malformed input. *)
