open Relational

(** Structure comparisons the tests use to judge shrinking and cores:
    homomorphic equivalence and isomorphism.  Isomorphism is decided by
    filtering the streamed homomorphisms, so keep the structures small. *)

val hom_equivalent : Structure.t -> Structure.t -> bool
(** Homomorphisms exist in both directions. *)

val is_isomorphism : Structure.t -> Structure.t -> Homomorphism.mapping -> bool
(** A bijective homomorphism whose inverse is also a homomorphism. *)

val isomorphic : Structure.t -> Structure.t -> bool
