(** Arbitrary-precision signed integers.

    The sealed build environment has no [zarith]; this module provides the
    exact integer arithmetic required by the linear-arithmetic solver
    ([Smt]), where simplex pivoting can produce coefficients that overflow
    native integers.

    Values are immutable. The representation is sign-magnitude with the
    magnitude stored little-endian in base [2^30]. *)

type t

(** {1 Constants} *)

val zero : t
val one : t
val minus_one : t
val two : t

(** {1 Conversions} *)

(** [of_int n] converts a native integer. *)
val of_int : int -> t

(** [to_int x] is [Some n] when [x] fits in a native [int]. *)
val to_int : t -> int option

(** [to_int_exn x] converts to a native [int].
    @raise Failure when [x] does not fit. *)
val to_int_exn : t -> int

(** [of_string s] parses an optionally-signed decimal literal.
    @raise Invalid_argument on malformed input. *)
val of_string : string -> t

(** [to_string x] renders [x] in decimal. *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** {1 Predicates and comparisons} *)

(** [sign x] is [-1], [0] or [1]. *)
val sign : t -> int

val is_zero : t -> bool

(** [is_one x] is [equal x one], without the comparison. *)
val is_one : t -> bool

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val min : t -> t -> t
val max : t -> t -> t

(** [fits_int x] is [true] when [to_int x] would succeed. *)
val fits_int : t -> bool

(** {1 Arithmetic} *)

val neg : t -> t
val abs : t -> t
val add : t -> t -> t
val sub : t -> t -> t
val mul : t -> t -> t
val succ : t -> t
val pred : t -> t

(** [divmod a b] is truncated division: [(q, r)] with [a = q*b + r],
    [|r| < |b|] and [r] having the sign of [a] (like OCaml's [/] and
    [mod]).
    @raise Division_by_zero when [b] is zero. *)
val divmod : t -> t -> t * t

val div : t -> t -> t
val rem : t -> t -> t

(** [ediv_emod a b] is Euclidean division: [(q, r)] with [a = q*b + r] and
    [0 <= r < |b|].
    @raise Division_by_zero when [b] is zero. *)
val ediv_emod : t -> t -> t * t

(** [fdiv a b] is division rounding toward negative infinity. *)
val fdiv : t -> t -> t

(** [cdiv a b] is division rounding toward positive infinity. *)
val cdiv : t -> t -> t

(** [gcd a b] is the non-negative greatest common divisor; [gcd 0 0 = 0]. *)
val gcd : t -> t -> t

(** [lcm a b] is the non-negative least common multiple. *)
val lcm : t -> t -> t

(** [mul_int x n] multiplies by a native integer. *)
val mul_int : t -> int -> t

(** [pow x n] raises [x] to the non-negative power [n].
    @raise Invalid_argument when [n < 0]. *)
val pow : t -> int -> t

(** [shift_left x n] is [x * 2^n] for [n >= 0]. *)
val shift_left : t -> int -> t

(** {1 Infix operators} *)

module Infix : sig
  val ( + ) : t -> t -> t
  val ( - ) : t -> t -> t
  val ( * ) : t -> t -> t
  val ( / ) : t -> t -> t
  val ( ~- ) : t -> t
  val ( = ) : t -> t -> bool
  val ( < ) : t -> t -> bool
  val ( <= ) : t -> t -> bool
  val ( > ) : t -> t -> bool
  val ( >= ) : t -> t -> bool
end
