type t = { num : Bigint.t; den : Bigint.t }

let make num den =
  if Bigint.is_zero den then raise Division_by_zero;
  if Bigint.is_zero num then { num = Bigint.zero; den = Bigint.one }
  else begin
    let num, den = if Bigint.sign den < 0 then (Bigint.neg num, Bigint.neg den) else (num, den) in
    let g = Bigint.gcd num den in
    { num = Bigint.div num g; den = Bigint.div den g }
  end

let zero = { num = Bigint.zero; den = Bigint.one }
let one = { num = Bigint.one; den = Bigint.one }
let minus_one = { num = Bigint.minus_one; den = Bigint.one }

let of_bigint n = { num = n; den = Bigint.one }
let of_int n = of_bigint (Bigint.of_int n)
let of_ints num den = make (Bigint.of_int num) (Bigint.of_int den)

let num q = q.num
let den q = q.den

let sign q = Bigint.sign q.num
let is_zero q = Bigint.is_zero q.num
let is_integer q = Bigint.is_one q.den

let compare a b =
  if is_integer a && is_integer b then Bigint.compare a.num b.num
  else Bigint.compare (Bigint.mul a.num b.den) (Bigint.mul b.num a.den)

let equal a b = compare a b = 0
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let neg q = { q with num = Bigint.neg q.num }
let abs q = { q with num = Bigint.abs q.num }

(* Zero operands and integers (denominator one) skip the cross products
   and the gcd; every result is the canonical one [make] would build. *)
let add a b =
  if is_zero a then b
  else if is_zero b then a
  else if is_integer a && is_integer b then of_bigint (Bigint.add a.num b.num)
  else
    make
      (Bigint.add (Bigint.mul a.num b.den) (Bigint.mul b.num a.den))
      (Bigint.mul a.den b.den)

let sub a b = add a (neg b)
let mul a b =
  if is_zero a || is_zero b then zero
  else if is_integer a && is_integer b then of_bigint (Bigint.mul a.num b.num)
  else make (Bigint.mul a.num b.num) (Bigint.mul a.den b.den)

let inv q =
  if is_zero q then raise Division_by_zero;
  make q.den q.num

let div a b = mul a (inv b)

let floor q = Bigint.fdiv q.num q.den
let ceil q = Bigint.cdiv q.num q.den

let to_bigint q =
  if is_integer q then q.num
  else failwith "Rational.to_bigint: not an integer"

let to_string q =
  if is_integer q then Bigint.to_string q.num
  else Bigint.to_string q.num ^ "/" ^ Bigint.to_string q.den

let pp fmt q = Format.pp_print_string fmt (to_string q)

let to_float q =
  (* Good enough for reporting: convert through strings only when the
     components fit a native int, otherwise fall back to a quotient of
     floats of the leading decimal digits. *)
  match (Bigint.to_int q.num, Bigint.to_int q.den) with
  | Some n, Some d -> float_of_int n /. float_of_int d
  | _ ->
    let approx b =
      let s = Bigint.to_string (Bigint.abs b) in
      let sgn = if Bigint.sign b < 0 then -1.0 else 1.0 in
      let head = String.sub s 0 (Stdlib.min 15 (String.length s)) in
      let exp = String.length s - String.length head in
      sgn *. float_of_string head *. (10.0 ** float_of_int exp)
    in
    approx q.num /. approx q.den

module Infix = struct
  let ( + ) = add
  let ( - ) = sub
  let ( * ) = mul
  let ( / ) = div
  let ( ~- ) = neg
  let ( = ) = equal
  let ( < ) a b = compare a b < 0
  let ( <= ) a b = compare a b <= 0
  let ( > ) a b = compare a b > 0
  let ( >= ) a b = compare a b >= 0
end
