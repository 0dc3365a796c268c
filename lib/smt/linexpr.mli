(** Linear expressions [sum c_i * x_i + k] over integer-indexed variables
    with rational coefficients.

    Expressions are normalized: no zero coefficients are stored. *)

module Q := Numbers.Rational

type t

val zero : t
val const : Q.t -> t
val of_int : int -> t

(** [var x] is the expression [1 * x]. *)
val var : int -> t

(** [term c x] is [c * x]. *)
val term : Q.t -> int -> t

(** [of_terms terms k] builds [sum c_i*x_i + k]; repeated variables are
    summed. *)
val of_terms : (Q.t * int) list -> Q.t -> t

(** [of_int_terms terms k] is [of_terms] with native-int coefficients. *)
val of_int_terms : (int * int) list -> int -> t

val add : t -> t -> t
val sub : t -> t -> t
val neg : t -> t
val scale : Q.t -> t -> t
val add_term : Q.t -> int -> t -> t
val add_const : Q.t -> t -> t

(** [coeff x e] is the coefficient of [x] (zero when absent). *)
val coeff : int -> t -> Q.t

val constant : t -> Q.t

(** [terms e] lists the (coefficient, variable) pairs, variables
    ascending. *)
val terms : t -> (Q.t * int) list

val vars : t -> int list
val is_const : t -> bool

(** [eval assign e] evaluates [e]; [assign] must be defined on every
    variable of [e]. *)
val eval : (int -> Q.t) -> t -> Q.t

(** [eval_delta assign e] evaluates over delta-rationals. *)
val eval_delta : (int -> Delta.t) -> t -> Delta.t

(** [scale_to_integers e] multiplies [e] by the least positive rational
    making every coefficient and the constant integral, and returns the
    resulting expression ([e] itself when it is already integral). *)
val scale_to_integers : t -> t

(** [equal] and [compare] take a physical-equality fast path before the
    structural comparison. *)
val equal : t -> t -> bool

val compare : t -> t -> int

(** [hash e] is a structural hash, cached in the expression after the
    first call (so repeated hashing — e.g. in the incremental engine's
    assertion-dedup tables — is O(1)).  Compatible with {!equal}. *)
val hash : t -> int

(** [pp ?names fmt e] prints [e]; [names] renders variable indices
    (default ["x<i>"]). *)
val pp : ?names:(int -> string) -> Format.formatter -> t -> unit

val to_string : ?names:(int -> string) -> t -> string

(** [map_vars f e] renames variables; [f] must be injective on the
    variables of [e]. *)
val map_vars : (int -> int) -> t -> t

(** [subst x by e] replaces variable [x] with expression [by] in [e]. *)
val subst : int -> t -> t -> t
