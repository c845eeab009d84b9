(** Linear algebra over the two-element field GF(2).

    Used for Schaefer's affine class: an affine relation is the solution set
    of a linear system, recovered via the nullspace of the relation's tuple
    matrix (Theorem 3.2), and affine satisfiability reduces to Gaussian
    elimination.  One elimination serves {!solve}, {!rank} and
    {!nullspace_basis}: a sparse one keyed by pivot column whose rows
    remember which input equations they sum, so an inconsistent system
    comes with its own refutation. *)

type equation = { coeffs : bool array; rhs : bool }
(** [sum_i coeffs.(i) * x_i = rhs] over GF(2). *)

type system = { nvars : int; equations : equation list }

val make_system : nvars:int -> equation list -> system
(** @raise Invalid_argument on coefficient-vector length mismatch. *)

val support : bool array -> int list
(** The positions of the [true] coefficients, ascending. *)

val solve : ?budget:Relational.Budget.t -> system -> (bool array, int list) result
(** Some solution (free variables set to 0), or, when inconsistent, the
    ascending indices in [equations] of equations whose sum is [0 = 1].
    Ticks [budget] once per reduction step.
    @raise Relational.Budget.Exhausted when [budget] runs out. *)

val rank : bool array list -> int
(** Rank of a list of equal-length GF(2) row vectors. *)

val nullspace_basis : ncols:int -> bool array list -> bool array list
(** Basis of the right nullspace [{a | M a = 0}] of the matrix whose rows
    are the given vectors. *)

val pp : Format.formatter -> system -> unit
