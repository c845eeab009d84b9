(** Binary encoding of structures (Lemma 5.5).

    [binary(A)] is a structure over a vocabulary of binary relation symbols
    [E_{P,Q,i,j}] — one for each pair of relation symbols [P, Q] of the
    original vocabulary and each pair of argument positions [i] of [P] and
    [j] of [Q].  Its universe is the set of (relation, tuple) facts of [A],
    and [E_{P,Q,i,j}] holds of facts [(s, t)] when [s ∈ P], [t ∈ Q] and the
    [i]-th entry of [s] equals the [j]-th entry of [t].

    Lemma 5.5: there is a homomorphism [A -> B] iff there is one
    [binary(A) -> binary(B)].  The encoding drops all arities to 2, which
    makes treewidth-based restrictions meaningful for wide relations. *)

val encode : Structure.t -> Structure.t
(** [binary(A)]. *)

val encode_economical : Structure.t -> Structure.t
(** The paper's optimized encoding: instead of all coincidence pairs, store
    only a chain linking the successive occurrences of each element (plus
    the reflexive pairs), so that the reflexive-symmetric-transitive closure
    recovers every coincidence.  Fewer tuples means a sparser — often
    lower-treewidth — encoding.  Homomorphism existence is preserved when
    the {e source} is encoded economically and the {e target} with the full
    {!encode}. *)
