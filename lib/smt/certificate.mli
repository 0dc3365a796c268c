(** Unsatisfiability certificates for QF_LIA conjunctions.

    A certificate is a self-contained refutation of a conjunction of
    input atoms (optionally extended with factored case-splits, the
    checker's justice branches): Farkas combinations refute rational
    infeasibility, divisibility conflicts refute integer infeasibility
    of a single equality, [Branch] nodes perform the branch-and-bound
    case split on a fractional variable, and [Split] nodes perform the
    case analysis over a disjunctive branch entry.

    The type is pure data — producing one is the solver's job
    ({!Lia.solve_cert}), replaying one is {!Certcheck}'s, and the two
    share nothing but this module and {!Atom}. *)

module Q := Numbers.Rational
module B := Numbers.Bigint

(** Where a Farkas premise comes from. *)
type reason =
  | Input of int  (** index into the (extended) input atom list *)
  | Cut of int
      (** the cut introduced by the [Branch] ancestor at depth [d]
          (root [Branch] = depth 0): [x - pivot <= 0] on the low side,
          [pivot + 1 - x <= 0] on the high side.  The checker
          reconstructs the cut atom itself from the [Branch] node. *)

type premise = {
  coeff : Q.t;
      (** Farkas multiplier; must be nonnegative for inequality
          premises, any sign for equalities *)
  atom : Atom.t;
      (** the premise as used in the combination — for [Input i], the
          normalized/tightened derivative of input [i] *)
  reason : reason;
}

type t =
  | Farkas of premise list
      (** [sum coeff_i * atom_i] is a contradiction: the variables
          cancel and the constant is positive (or zero with a strict
          premise carrying a positive multiplier) *)
  | Div_conflict of { index : int; atom : Atom.t }
      (** input [index] normalizes to equality [atom] whose variable
          coefficients' gcd does not divide its constant *)
  | Branch of { var : int; pivot : B.t; low : t; high : t }
      (** integer case split: [low] refutes the inputs plus
          [var <= pivot], [high] refutes the inputs plus
          [var >= pivot + 1] *)
  | Split of { cubes : Atom.t list list; certs : t list }
      (** disjunctive case analysis: [cubes] are the alternatives of
          the next pending branch entry, and [certs] (one per cube, in
          order) refute the inputs extended with that cube's atoms *)
  | Static of t
      (** a static prune: the wrapped certificate refutes the recorded
          query exactly as if it stood alone — the wrapper only records
          that the refutation was found by the abstract-interpretation
          invariant engine rather than by the solver, so replay tools
          can account for static discharges separately *)

(** Number of [Farkas]/[Div_conflict] leaves — a cheap size measure for
    reporting. *)
val size : t -> int

(** Input indices referenced anywhere in the certificate, sorted: the
    unsat core the certificate witnesses. *)
val core : t -> int list

(** [restrict cert] is [(core cert, cert')], where [cert'] is [cert]
    with every [Input]/[Div_conflict] index [i] renumbered to the
    position of [i] in [core cert].  When [cert] refutes the
    conjunction [atoms], [cert'] refutes the sub-list of [atoms] at the
    [core] indices, in order: it cites the same atoms, only their
    positions change.  For certificates of a plain conjunction:
    @raise Invalid_argument on a [Split] node, whose cube atoms extend
    the input list past the core. *)
val restrict : t -> int list * t

val pp : Format.formatter -> t -> unit

(** {1 JSON codec}

    Canonical via {!Jsonc}; rationals and big integers are encoded as
    strings ("num/den" for rationals), so the representation is exact.
    Used by the certificate emission files ([--emit-certs]) and
    [holistic check-cert]. *)

val atom_to_json : Atom.t -> Jsonc.t

(** @raise Jsonc.Parse_error on shape mismatch. *)
val atom_of_json : Jsonc.t -> Atom.t

val to_json : t -> Jsonc.t

(** @raise Jsonc.Parse_error on shape mismatch. *)
val of_json : Jsonc.t -> t
