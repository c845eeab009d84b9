open Relational

(** Booleanization (Lemma 3.5): convert an arbitrary instance [(A, B)] of
    the homomorphism problem into a Boolean instance [(A_b, B_b)] by binary
    encoding of [B]'s elements.

    With [n = |B|] and [m = max(1, ceil(log2 n))], every element of [B]
    becomes an [m]-bit vector and every element of [A] becomes [m] copies;
    a k-ary relation becomes a km-ary Boolean relation.  Homomorphisms are
    preserved in both directions. *)

val bits_needed : int -> int
(** [max 1 (ceil (log2 n))]. *)

val encode_target : Structure.t -> Structure.t
(** [B_b], over the Boolean universe [{0, 1}]. *)

val encode_pair : Structure.t -> Structure.t -> Structure.t * Structure.t
(** [(A_b, B_b)] with matching bit width. *)

val decode_counting :
  bits:int -> target:Structure.t -> Homomorphism.mapping -> Homomorphism.mapping * int
(** Recover a homomorphism [A -> B] from one [A_b -> B_b], and how many
    elements were clamped to [0] because their decoded code fell outside
    [B]'s universe (they are unconstrained in [A]).  Bumps the
    ["schaefer.booleanize.clamped"] telemetry counter. *)

type decode_context = {
  bits : int;  (** Bit width of the encoding. *)
  source_size : int;  (** [|A|]. *)
  target_size : int;  (** [|B|]. *)
  clamped : int;  (** Elements whose code was out of range and clamped. *)
  mapping : Homomorphism.mapping;  (** The rejected decoded mapping. *)
}

exception Decode_rejected of decode_context
(** The Boolean solver produced a satisfying assignment whose decoding is
    not a homomorphism [A -> B].  This is an internal invariant violation
    (Lemma 3.5 guarantees round-tripping), surfaced as a typed exception
    so [Core.Error] can classify it into the documented exit-code
    taxonomy instead of letting a bare [Invalid_argument] escape. *)

type outcome =
  | Hom of Homomorphism.mapping
  | No_hom of Certificate.t
      (** An [Empty_relation] fact of the raw pair if there is one (or,
          against an empty universe, a childless case split), else the
          encoded pair's {!Uniform.solve} refutation wrapped in
          [Via_booleanization]. *)
  | Not_schaefer of Structure.t
      (** The Booleanized target, for inspection, when it lands outside
          Schaefer's tractable classes or the vocabularies' arities
          clash. *)

val solve : ?budget:Budget.t -> Structure.t -> Structure.t -> outcome
(** Booleanize, classify, solve with {!Uniform.solve}, decode: one pass
    decides and refutes.
    @raise Decode_rejected when the decoded mapping fails
    [Homomorphism.is_homomorphism] — an internal invariant violation.
    @raise Budget.Exhausted when [budget] runs out. *)
