(* Sign-magnitude arbitrary-precision integers, magnitude little-endian in
   base 2^30.  Invariants: no leading (high-order) zero digit; [sign] is 0
   iff the magnitude is empty; every digit is in [0, 2^30). *)

let bits_per_digit = 30
let base = 1 lsl bits_per_digit
let mask = base - 1

type t = { sign : int; mag : int array }

let zero = { sign = 0; mag = [||] }

(* ------------------------------------------------------------------ *)
(* Magnitude helpers (operate on raw digit arrays).                    *)

let normalize_mag mag =
  let n = Array.length mag in
  let rec top i = if i >= 0 && mag.(i) = 0 then top (i - 1) else i in
  let hi = top (n - 1) in
  if hi = n - 1 then mag else Array.sub mag 0 (hi + 1)

let make sign mag =
  let mag = normalize_mag mag in
  if Array.length mag = 0 then zero else { sign; mag }

let compare_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la <> lb then compare la lb
  else
    let rec go i =
      if i < 0 then 0
      else if a.(i) <> b.(i) then compare a.(i) b.(i)
      else go (i - 1)
    in
    go (la - 1)

let add_mag a b =
  let la = Array.length a and lb = Array.length b in
  let lr = (if la > lb then la else lb) + 1 in
  let r = Array.make lr 0 in
  let carry = ref 0 in
  for i = 0 to lr - 1 do
    let da = if i < la then a.(i) else 0 in
    let db = if i < lb then b.(i) else 0 in
    let s = da + db + !carry in
    r.(i) <- s land mask;
    carry := s lsr bits_per_digit
  done;
  r

(* Requires [a >= b] as magnitudes. *)
let sub_mag a b =
  let la = Array.length a and lb = Array.length b in
  let r = Array.make la 0 in
  let borrow = ref 0 in
  for i = 0 to la - 1 do
    let db = if i < lb then b.(i) else 0 in
    let s = a.(i) - db - !borrow in
    if s < 0 then begin
      r.(i) <- s + base;
      borrow := 1
    end
    else begin
      r.(i) <- s;
      borrow := 0
    end
  done;
  assert (!borrow = 0);
  r

let mul_mag a b =
  let la = Array.length a and lb = Array.length b in
  if la = 0 || lb = 0 then [||]
  else begin
    let r = Array.make (la + lb) 0 in
    for i = 0 to la - 1 do
      let carry = ref 0 in
      let ai = a.(i) in
      for j = 0 to lb - 1 do
        let cur = r.(i + j) + (ai * b.(j)) + !carry in
        r.(i + j) <- cur land mask;
        carry := cur lsr bits_per_digit
      done;
      let k = ref (i + lb) in
      while !carry <> 0 do
        let cur = r.(!k) + !carry in
        r.(!k) <- cur land mask;
        carry := cur lsr bits_per_digit;
        incr k
      done
    done;
    r
  end

(* Multiply a magnitude by a small non-negative native int (< 2^30). *)
let mul_mag_small a m =
  if m = 0 then [||]
  else begin
    let la = Array.length a in
    let r = Array.make (la + 2) 0 in
    let carry = ref 0 in
    for i = 0 to la - 1 do
      let cur = (a.(i) * m) + !carry in
      r.(i) <- cur land mask;
      carry := cur lsr bits_per_digit
    done;
    let k = ref la in
    while !carry <> 0 do
      r.(!k) <- !carry land mask;
      carry := !carry lsr bits_per_digit;
      incr k
    done;
    r
  end

(* Add a small non-negative native int (< 2^30) to a magnitude. *)
let add_mag_small a m =
  let la = Array.length a in
  let r = Array.make (la + 1) 0 in
  Array.blit a 0 r 0 la;
  let carry = ref m in
  let i = ref 0 in
  while !carry <> 0 do
    let cur = r.(!i) + !carry in
    r.(!i) <- cur land mask;
    carry := cur lsr bits_per_digit;
    incr i
  done;
  r

let bit_length_mag a =
  let la = Array.length a in
  if la = 0 then 0
  else begin
    let top = a.(la - 1) in
    let rec width w = if top lsr w = 0 then w else width (w + 1) in
    ((la - 1) * bits_per_digit) + width 1
  end

let get_bit a k =
  (a.(k / bits_per_digit) lsr (k mod bits_per_digit)) land 1

(* Long division of magnitudes, bit at a time.  Adequate for the modest
   coefficient sizes produced by the solver. *)
let divmod_mag a b =
  let lb = Array.length b in
  if lb = 0 then raise Division_by_zero;
  if compare_mag a b < 0 then ([||], Array.copy a)
  else begin
    let la = Array.length a in
    let bits = bit_length_mag a in
    let q = Array.make la 0 in
    let r = Array.make (lb + 1) 0 in
    (* [r >= b] where r is a (lb+1)-digit window. *)
    let r_ge_b () =
      if r.(lb) <> 0 then true
      else
        let rec go i =
          if i < 0 then true
          else if r.(i) <> b.(i) then r.(i) > b.(i)
          else go (i - 1)
        in
        go (lb - 1)
    in
    let r_sub_b () =
      let borrow = ref 0 in
      for i = 0 to lb do
        let db = if i < lb then b.(i) else 0 in
        let s = r.(i) - db - !borrow in
        if s < 0 then begin
          r.(i) <- s + base;
          borrow := 1
        end
        else begin
          r.(i) <- s;
          borrow := 0
        end
      done;
      assert (!borrow = 0)
    in
    for k = bits - 1 downto 0 do
      let carry = ref (get_bit a k) in
      for i = 0 to lb do
        let v = (r.(i) lsl 1) lor !carry in
        r.(i) <- v land mask;
        carry := v lsr bits_per_digit
      done;
      if r_ge_b () then begin
        r_sub_b ();
        q.(k / bits_per_digit) <-
          q.(k / bits_per_digit) lor (1 lsl (k mod bits_per_digit))
      end
    done;
    (q, r)
  end

(* Divide a magnitude by a small positive int; returns quotient digits and
   native remainder. *)
let divmod_mag_small a m =
  let la = Array.length a in
  let q = Array.make la 0 in
  let rem = ref 0 in
  for i = la - 1 downto 0 do
    let cur = (!rem lsl bits_per_digit) lor a.(i) in
    q.(i) <- cur / m;
    rem := cur mod m
  done;
  (q, !rem)

(* ------------------------------------------------------------------ *)
(* Public operations.                                                  *)

let one = { sign = 1; mag = [| 1 |] }
let two = { sign = 1; mag = [| 2 |] }
let minus_one = { sign = -1; mag = [| 1 |] }

let of_int n =
  if n = 0 then zero
  else if n > -(base * base) && n < base * base then begin
    (* One or two digits, built directly. *)
    let m = Stdlib.abs n in
    let mag = if m < base then [| m |] else [| m land mask; m lsr bits_per_digit |] in
    { sign = (if n > 0 then 1 else -1); mag }
  end
  else begin
    (* Work with the negative of |n| to avoid [min_int] overflow. *)
    let sign = if n > 0 then 1 else -1 in
    let m = if n > 0 then -n else n in
    let rec digits m acc = if m = 0 then acc else digits (m / base) (-(m mod base) :: acc) in
    let ds = digits m [] in
    let mag = Array.of_list (List.rev ds) in
    { sign; mag }
  end

(* Native fast paths.  A magnitude of at most two digits is below 2^60,
   so a sum, difference, quotient or remainder of two such values — and
   the product of two one-digit values — is computed exactly in a native
   int and converted back to the same canonical representation. *)
let is_small x = Array.length x.mag <= 2

let to_small x =
  match x.mag with
  | [||] -> 0
  | [| d |] -> if x.sign < 0 then -d else d
  | [| d0; d1 |] ->
    let v = (d1 lsl bits_per_digit) lor d0 in
    if x.sign < 0 then -v else v
  | _ -> assert false

let sign x = x.sign
let is_zero x = x.sign = 0

let compare a b =
  if a.sign <> b.sign then compare a.sign b.sign
  else if a.sign >= 0 then compare_mag a.mag b.mag
  else compare_mag b.mag a.mag

let equal a b = compare a b = 0
let is_one x = x.sign = 1 && Array.length x.mag = 1 && x.mag.(0) = 1
let min a b = if compare a b <= 0 then a else b
let max a b = if compare a b >= 0 then a else b

let hash x =
  Array.fold_left (fun acc d -> (acc * 31) + d) (x.sign + 7) x.mag
  land max_int

let neg x = if x.sign = 0 then x else { x with sign = -x.sign }
let abs x = if x.sign < 0 then neg x else x

let add a b =
  if a.sign = 0 then b
  else if b.sign = 0 then a
  else if is_small a && is_small b then of_int (to_small a + to_small b)
  else if a.sign = b.sign then make a.sign (add_mag a.mag b.mag)
  else begin
    let c = compare_mag a.mag b.mag in
    if c = 0 then zero
    else if c > 0 then make a.sign (sub_mag a.mag b.mag)
    else make b.sign (sub_mag b.mag a.mag)
  end

let sub a b = add a (neg b)
let succ x = add x one
let pred x = sub x one

let mul a b =
  if a.sign = 0 || b.sign = 0 then zero
  else if Array.length a.mag = 1 && Array.length b.mag = 1 then of_int (to_small a * to_small b)
  else make (a.sign * b.sign) (mul_mag a.mag b.mag)

let mul_int x n =
  if n = 0 || x.sign = 0 then zero
  else begin
    let s = if n > 0 then x.sign else -x.sign in
    let m = Stdlib.abs n in
    if m < base then make s (mul_mag_small x.mag m)
    else mul x (of_int n)
  end

let divmod a b =
  if b.sign = 0 then raise Division_by_zero;
  if a.sign = 0 then (zero, zero)
  else if is_small a && is_small b then
    let x = to_small a and y = to_small b in
    (of_int (x / y), of_int (x mod y))
  else if Array.length b.mag = 1 then
    let qm, rm = divmod_mag_small a.mag b.mag.(0) in
    (make (a.sign * b.sign) qm, if rm = 0 then zero else { sign = a.sign; mag = [| rm |] })
  else begin
    let qm, rm = divmod_mag a.mag b.mag in
    let q = make (a.sign * b.sign) qm in
    let r = make a.sign rm in
    (q, r)
  end

let div a b = fst (divmod a b)
let rem a b = snd (divmod a b)

let ediv_emod a b =
  let q, r = divmod a b in
  if r.sign >= 0 then (q, r)
  else if b.sign > 0 then (pred q, add r b)
  else (succ q, sub r b)

let fdiv a b =
  let q, r = divmod a b in
  if r.sign = 0 || r.sign = b.sign then q else pred q

let cdiv a b =
  let q, r = divmod a b in
  if r.sign = 0 || r.sign <> b.sign then q else succ q

let rec gcd_small a b = if b = 0 then a else gcd_small b (a mod b)

let rec gcd a b =
  let a = abs a and b = abs b in
  if is_small a && is_small b then of_int (gcd_small (to_small a) (to_small b))
  else if is_zero b then a
  else gcd b (rem a b)

let lcm a b =
  if is_zero a || is_zero b then zero
  else abs (mul (div a (gcd a b)) b)

let pow x n =
  if n < 0 then invalid_arg "Bigint.pow: negative exponent";
  let rec go acc base n =
    if n = 0 then acc
    else if n land 1 = 1 then go (mul acc base) (mul base base) (n lsr 1)
    else go acc (mul base base) (n lsr 1)
  in
  go one x n

let shift_left x n =
  if n < 0 then invalid_arg "Bigint.shift_left: negative shift";
  mul x (pow two n)

let fits_int x =
  (* Conservative: at most 62 bits of magnitude always fits. *)
  bit_length_mag x.mag <= 62

let to_int x =
  if not (fits_int x) then None
  else begin
    let v = Array.fold_right (fun d acc -> (acc lsl bits_per_digit) lor d) x.mag 0 in
    Some (if x.sign < 0 then -v else v)
  end

let to_int_exn x =
  match to_int x with
  | Some v -> v
  | None -> failwith "Bigint.to_int_exn: does not fit in a native int"

let to_string x =
  if x.sign = 0 then "0"
  else begin
    let chunks = ref [] in
    let m = ref x.mag in
    while Array.length (normalize_mag !m) > 0 do
      let q, r = divmod_mag_small !m 1_000_000_000 in
      chunks := r :: !chunks;
      m := normalize_mag q
    done;
    let buf = Buffer.create 32 in
    if x.sign < 0 then Buffer.add_char buf '-';
    (match !chunks with
     | [] -> Buffer.add_char buf '0'
     | first :: rest ->
       Buffer.add_string buf (string_of_int first);
       List.iter (fun c -> Buffer.add_string buf (Printf.sprintf "%09d" c)) rest);
    Buffer.contents buf
  end

let of_string s =
  let len = String.length s in
  if len = 0 then invalid_arg "Bigint.of_string: empty string";
  let negative, start =
    match s.[0] with
    | '-' -> (true, 1)
    | '+' -> (false, 1)
    | _ -> (false, 0)
  in
  if start >= len then invalid_arg "Bigint.of_string: no digits";
  let mag = ref [||] in
  for i = start to len - 1 do
    let c = s.[i] in
    if c < '0' || c > '9' then invalid_arg "Bigint.of_string: invalid digit";
    mag := add_mag_small (mul_mag_small !mag 10) (Char.code c - Char.code '0')
  done;
  let v = make 1 !mag in
  if negative then neg v else v

let pp fmt x = Format.pp_print_string fmt (to_string x)

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
