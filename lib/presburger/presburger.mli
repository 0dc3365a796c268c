(** Quantifier elimination for Presburger arithmetic (Cooper's
    algorithm).

    The paper's modelling step (Section 3.1) replaces the local receive
    counters of the pseudocode by global send counters: the guard
    "received v from at least t+1 distinct processes" becomes
    [exists rcvd. rcvd <= sent + f /\ rcvd >= t + 1], and eliminating the
    quantifier yields the threshold-automaton guard [sent >= t + 1 - f].
    This module implements the elimination (see {!examples} in the test
    suite and [examples/receive_elimination.ml]).

    Variables are named by strings; all variables range over [Z]. *)

(** Linear terms [sum c_i x_i + k] with arbitrary-precision coefficients. *)
module Term : sig
  type t

  val const : int -> t
  val var : string -> t
  val of_terms : (int * string) list -> int -> t
  val add : t -> t -> t
  val sub : t -> t -> t
  val neg : t -> t
  val scale : Numbers.Bigint.t -> t -> t
  val coeff : string -> t -> Numbers.Bigint.t
  val eval : (string -> Numbers.Bigint.t) -> t -> Numbers.Bigint.t
  val to_string : t -> string
end

type t =
  | Lt of Term.t  (** [term < 0] *)
  | Eq of Term.t  (** [term = 0] *)
  | Divides of Numbers.Bigint.t * Term.t  (** [d | term], [d > 0] *)
  | Not of t
  | And of t list
  | Or of t list
  | Exists of string * t
  | Forall of string * t

(** {1 Convenience constructors} *)

val lt : Term.t -> Term.t -> t
val le : Term.t -> Term.t -> t
val ge : Term.t -> Term.t -> t
val gt : Term.t -> Term.t -> t
val eq : Term.t -> Term.t -> t
val tt : t
val ff : t

(** [eliminate f] removes every quantifier; the result is equivalent to
    [f] over the integers and quantifier-free. *)
val eliminate : t -> t

(** [eval env f] evaluates a quantifier-free formula.
    @raise Invalid_argument on quantifiers. *)
val eval : (string -> Numbers.Bigint.t) -> t -> bool

(** [is_valid f] decides a closed formula (all variables quantified).
    @raise Invalid_argument if free variables remain after
    elimination. *)
val is_valid : t -> bool

val free_vars : t -> string list
val to_string : t -> string
