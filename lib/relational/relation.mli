(** Finite relations: sets of tuples of a fixed arity.

    Relations are immutable.  Each relation lazily caches an {!Index}
    over its tuples — per-(position, value) tuple lists and O(1)
    membership — built on first demand and reused by the propagation,
    semijoin, and direct-route solvers. *)

type t

(** Read-only index over a relation's tuples.

    Membership is a dense bitset when the relation is small: with
    [base] one past its largest entry, when [base^arity] is at most
    2{^16} cells (8 KiB), a member is one bit, addressed by the tuple
    read as a number in radix [base], and a probe hashes nothing.
    Larger relations keep a hash set.  Either way a probe answers
    [false] for a tuple of another length or with an entry outside
    the relation's range. *)
module Index : sig
  type t

  val tuples : t -> Tuple.t array
  (** All tuples, in increasing {!Tuple.compare} order.  Callers must not
      mutate the array. *)

  val matching : t -> pos:int -> value:int -> Tuple.t array
  (** Tuples whose [pos]-th entry equals [value]; [[||]] when none.
      Callers must not mutate the array.
      @raise Invalid_argument if [pos] is outside the arity. *)

  val mem : t -> Tuple.t -> bool
  (** O(1) membership: one bit read on a dense index, one hash probe
      otherwise. *)

  val mem_image : t -> map:int array -> int array -> at:int -> len:int -> bool
  (** [mem_image ix ~map src ~at ~len] is
      [mem ix [| map.(src.(at)); ...; map.(src.(at + len - 1)) |]]
      without building the tuple on a dense index: [false] when [len]
      is not the arity.  A staged check gathers a fact's image with it
      straight from a flat array of fact entries.  Every read is
      bounds-checked. *)
end

val index : t -> Index.t
(** The relation's cached index, built on first call. *)

val empty : int -> t
(** [empty arity] is the empty relation of the given arity. *)

val of_list : int -> Tuple.t list -> t
(** @raise Invalid_argument if a tuple has the wrong arity. *)

val arity : t -> int

val cardinal : t -> int
(** Number of tuples. *)

val is_empty : t -> bool

val mem : t -> Tuple.t -> bool

val add : t -> Tuple.t -> t
(** @raise Invalid_argument on arity mismatch. *)

val union : t -> t -> t
(** @raise Invalid_argument on arity mismatch. *)

val diff : t -> t -> t

val equal : t -> t -> bool

val iter : (Tuple.t -> unit) -> t -> unit

val fold : (Tuple.t -> 'a -> 'a) -> t -> 'a -> 'a

val for_all : (Tuple.t -> bool) -> t -> bool

val exists : (Tuple.t -> bool) -> t -> bool

val filter : (Tuple.t -> bool) -> t -> t

val elements : t -> Tuple.t list
(** Tuples in increasing {!Tuple.compare} order. *)

val tuples_array : t -> Tuple.t array
(** Tuples as an array (from the cached index); do not mutate. *)

val matching : t -> pos:int -> value:int -> Tuple.t array
(** [Index.matching (index r)]; do not mutate the result. *)

val choose : t -> Tuple.t option
(** Some tuple, or [None] when empty. *)

val pp : Format.formatter -> t -> unit
