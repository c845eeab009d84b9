(** The tagged-sum encoding [A + B] of a pair of structures over a common
    vocabulary (Section 4): one structure over the vocabulary
    [sigma_1 + sigma_2], whose universe is the disjoint union of the two
    universes, with unary markers [D1]/[D2] for the two halves and one copy
    [R1]/[R2] of every relation symbol.  It lets queries about pairs of
    structures — like "does the Spoiler win the existential k-pebble
    game?" — be phrased as ordinary queries about a single structure. *)

val left_name : string -> string
(** [R1]. *)

val right_name : string -> string
(** [R2]. *)

val d1 : string

val d2 : string

val encode : Structure.t -> Structure.t -> Structure.t
(** [A + B]; elements of [B] are shifted by [Structure.size A].
    @raise Invalid_argument when the vocabularies differ. *)
