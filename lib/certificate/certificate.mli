open Relational

(** Proof-carrying verdicts: machine-checkable certificates for both answers
    of the homomorphism problem, validated by a small trusted checker.

    Every [Sat] answer is certified by the witness itself; every [Unsat]
    answer by a refutation object whose validity can be established against
    the {e raw} instance [(A, B)] using nothing but tuple lookups.  The
    checker below shares no code with any solver route: it re-derives the
    meaning of each certificate form from first principles, so a bug in a
    route (propagation, semi-joins, the pebble game, Booleanization, ...)
    cannot also hide in the code that audits it.  The library only
    checks: every certificate is built by the route that decides, and
    nothing here searches or takes a budget.

    Soundness contract: [check a b c = true] implies
    - [c = Witness h]: [h] is a homomorphism from [a] to [b];
    - any other form: there is {e no} homomorphism from [a] to [b].

    The converse is not required — the checker may reject a malformed or
    merely unconvincing certificate — but every certificate produced by
    [Core.Solver] is accepted by construction (the differential oracle in
    [Testkit.Selfcheck] enforces this on random instances). *)

type origin = { symbol : string; fact : Tuple.t }
(** A fact of the source structure [A] that justifies a constraint. *)

type lit = { elem : int; sign : bool }
(** The Boolean assertion [h(elem) = 1] (positive) or [h(elem) = 0]
    (negative) about a prospective homomorphism into a Boolean target. *)

type iclause = { clause_of : origin; lits : lit list }
(** An instantiated clause: the disjunction of [lits], entailed by the
    single fact [clause_of] (see {!check} for the entailment test). *)

type iequation = { equation_of : origin; elems : int list; rhs : bool }
(** An instantiated GF(2) equation [xor_{e in elems} h(e) = rhs] entailed
    by the fact [equation_of]; [elems] are distinct. *)

type config = (int * int) list
(** A pebble-game position: pairs [(x, v)] asserting [h(x) = v]. *)

type search_tree =
  | Conflict of origin
      (** Under the partial assignment accumulated on the path from the
          root, no tuple of [B] is a possible image of this fact of [A]. *)
  | Split of { elem : int; children : (int * search_tree) list }
      (** Case split on the image of [elem]: one refutation per element of
          [B]'s universe, keyed by the chosen value (all values covered). *)

type shrink_step = {
  shrunk : Structure.t;  (** The smaller structure after one shrink. *)
  embed : int array;
      (** Homomorphism from [shrunk] into the enclosing structure (for a
          retraction: the inclusion of the retract; for a component
          restriction: the inclusion of the component). *)
  fold : int array option;
      (** Homomorphism from the enclosing structure onto [shrunk] — the
          retraction itself.  [None] for component restrictions, where no
          such map exists in general. *)
}
(** One certified instance shrink, replayed both ways by {!check}. *)

type t =
  | Witness of int array  (** The homomorphism itself certifies [Sat]. *)
  | Empty_relation of origin
      (** A fact of [A] over a symbol whose relation in [B] is empty or
          absent: no homomorphism can map it anywhere. *)
  | Unit_refutation of step list
      (** A unit-propagation trace over entailed clauses (Horn and dual
          Horn targets, Theorem 3.4): each step forces one literal, the
          final step exhibits an all-false clause. *)
  | Implication_cycle of {
      pivot : lit;
      forward : (iclause * lit) list;  (** [pivot => ... => not pivot]. *)
      backward : (iclause * lit) list;  (** [not pivot => ... => pivot]. *)
    }
      (** The 2-SAT refutation shape [x => * not x => * x] over entailed
          binary clauses (bijunctive targets). *)
  | Affine_contradiction of iequation list
      (** Entailed GF(2) equations whose formal sum is [0 = 1]: every
          element occurs an even number of times, the right-hand sides sum
          to 1 (affine targets). *)
  | Odd_walk of { symbol : string; walk : int list; colouring : int array }
      (** Hell–Nešetřil graph route: a closed walk of odd length in [A]
          (consecutive elements adjacent in either orientation) together
          with a proper 2-colouring of [B], which no homomorphism can
          reconcile. *)
  | Semijoin_empty of { facts : origin array; parent : int array }
      (** Acyclic (Yannakakis) route: a forest over the facts of [A]
          ([parent.(i) = -1] for roots) whose bottom-up semi-join supports,
          recomputed by the checker, empty out at some node. *)
  | Dp_empty of { bags : int list array; parent : int array }
      (** Bounded-treewidth route: a forest of bags over [A]'s elements
          whose bottom-up solution tables, recomputed by the checker, empty
          out at some node. *)
  | Spoiler_win of (config * int) list
      (** k-consistency route: a chronological derivation of dead game
          positions.  A step [(c, x)] is valid when every extension of [c]
          by a value for [x] is either not a partial homomorphism or
          contains an earlier dead position; deriving [[]] dead refutes. *)
  | Search_tree of search_tree
      (** Backtracking route: an exhausted search tree. *)
  | Via_booleanization of { bits : int; inner : t }
      (** Lemma 3.5 translation: [inner] refutes the independently
          re-encoded Boolean pair [(A_b, B_b)]; since any homomorphism
          [A -> B] induces one [A_b -> B_b], this refutes [(A, B)]. *)
  | Via_preprocess of {
      source : shrink_step list;
      target : shrink_step option;
      inner : t;
    }
      (** Preprocessing shrinks, outermost first: [source] chains from [A]
          down to the sub-instance [A'] actually solved, [target] (serve
          template coring) shrinks [B] to [B'].  Each step's maps are
          replayed as homomorphisms; [inner] is then checked on
          [(A', B')].  Sound because a homomorphism [A -> B] would compose
          with the source embeds and the target fold into one
          [A' -> B'], contradicting [inner].  The target step's [fold] is
          mandatory (it is the load-bearing direction on that side). *)

and step = { clause : iclause; forces : lit option }
(** One unit-propagation step; [forces = None] marks the closing conflict
    clause, all of whose literals are already false. *)

val no_image : t
(** A nonempty source against an empty target universe: a case split on
    element [0] with no branch, since that element has no image. *)

val check : Structure.t -> Structure.t -> t -> bool
(** [check a b c]: validate [c] against the raw instance using only tuple
    lookups.  Never raises; never calls solver code. *)

val describe : t -> string
(** Short human-readable name of the certificate form, e.g.
    ["unit-propagation"] or ["booleanized(gf2-contradiction)"]. *)

val size : t -> int
(** Rough size measure (number of atomic components), for reporting. *)
