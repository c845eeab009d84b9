(** Relational vocabularies: finite sets of relation symbols with arities. *)

type t

val create : (string * int) list -> t
(** [create symbols] builds a vocabulary from [(name, arity)] pairs.
    @raise Invalid_argument on duplicate names or negative arities. *)

val symbols : t -> (string * int) list
(** Symbols in declaration order. *)

val arity : t -> string -> int
(** @raise Not_found if the symbol is absent. *)

val mem : t -> string -> bool

val add : t -> string -> int -> t
(** Append a fresh symbol. @raise Invalid_argument if already present. *)

val equal : t -> t -> bool
(** Same symbols with same arities (order-insensitive). *)

val subset : t -> t -> bool
(** [subset v w] holds when every symbol of [v] occurs in [w] with the same
    arity. *)
