(* Tests for the arbitrary-precision arithmetic substrate: unit tests on
   known values and corner cases, property tests against the native-int
   oracle (for values that fit) and against algebraic laws (for values
   that do not). *)

module B = Numbers.Bigint
module Q = Numbers.Rational

let bigint = Alcotest.testable B.pp B.equal
let rational = Alcotest.testable Q.pp Q.equal

(* ------------------------------------------------------------------ *)
(* Bigint unit tests.                                                  *)

let test_of_to_int () =
  List.iter
    (fun n -> Alcotest.(check (option int)) (string_of_int n) (Some n) (B.to_int (B.of_int n)))
    [ 0; 1; -1; 42; -42; 1 lsl 30; (1 lsl 30) - 1; 1 lsl 45; -(1 lsl 45);
      max_int / 2; min_int / 2; (1 lsl 62) - 1; -((1 lsl 62) - 1) ]

let test_string_roundtrip () =
  List.iter
    (fun s -> Alcotest.(check string) s s (B.to_string (B.of_string s)))
    [ "0"; "1"; "-1"; "123456789012345678901234567890";
      "-999999999999999999999999999999999999";
      "1000000000000000000000000000000000000000000000001" ]

let test_string_leading_plus () =
  Alcotest.check bigint "+17" (B.of_int 17) (B.of_string "+17")

let test_add_carries () =
  let big = B.of_string "1073741823" in
  (* 2^30 - 1 *)
  Alcotest.check bigint "carry" (B.of_string "1073741824") (B.add big B.one);
  let x = B.of_string "999999999999999999999999999999" in
  Alcotest.check bigint "add/sub inverse" x (B.sub (B.add x big) big)

let test_mul_known () =
  let a = B.of_string "123456789123456789" in
  let b = B.of_string "987654321987654321" in
  Alcotest.check bigint "product"
    (B.of_string "121932631356500531347203169112635269")
    (B.mul a b)

let test_divmod_known () =
  let a = B.of_string "1000000000000000000000000000" in
  let b = B.of_string "7777777777777" in
  let q, r = B.divmod a b in
  Alcotest.check bigint "reconstruct" a (B.add (B.mul q b) r);
  Alcotest.(check bool) "rem bound" true (B.compare (B.abs r) (B.abs b) < 0)

let test_divmod_signs () =
  let check a b eq er =
    let q, r = B.divmod (B.of_int a) (B.of_int b) in
    Alcotest.check bigint (Printf.sprintf "%d/%d q" a b) (B.of_int eq) q;
    Alcotest.check bigint (Printf.sprintf "%d/%d r" a b) (B.of_int er) r
  in
  check 7 2 3 1;
  check (-7) 2 (-3) (-1);
  check 7 (-2) (-3) 1;
  check (-7) (-2) 3 (-1)

let test_ediv_emod () =
  let check a b =
    let q, r = B.ediv_emod (B.of_int a) (B.of_int b) in
    Alcotest.check bigint "a = q*b + r" (B.of_int a) (B.add (B.mul q (B.of_int b)) r);
    Alcotest.(check bool) "0 <= r" true (B.sign r >= 0);
    Alcotest.(check bool) "r < |b|" true (B.compare r (B.abs (B.of_int b)) < 0)
  in
  List.iter (fun (a, b) -> check a b) [ (7, 2); (-7, 2); (7, -2); (-7, -2); (0, 5); (12, 4); (-12, 4) ]

let test_fdiv_cdiv () =
  Alcotest.check bigint "fdiv -7 2" (B.of_int (-4)) (B.fdiv (B.of_int (-7)) (B.of_int 2));
  Alcotest.check bigint "cdiv -7 2" (B.of_int (-3)) (B.cdiv (B.of_int (-7)) (B.of_int 2));
  Alcotest.check bigint "fdiv 7 2" (B.of_int 3) (B.fdiv (B.of_int 7) (B.of_int 2));
  Alcotest.check bigint "cdiv 7 2" (B.of_int 4) (B.cdiv (B.of_int 7) (B.of_int 2))

let test_div_by_zero () =
  Alcotest.check_raises "divmod" Division_by_zero (fun () ->
      ignore (B.divmod B.one B.zero))

let test_gcd_lcm () =
  Alcotest.check bigint "gcd" (B.of_int 6) (B.gcd (B.of_int 54) (B.of_int (-24)));
  Alcotest.check bigint "gcd 0 0" B.zero (B.gcd B.zero B.zero);
  Alcotest.check bigint "gcd 0 x" (B.of_int 5) (B.gcd B.zero (B.of_int 5));
  Alcotest.check bigint "lcm" (B.of_int 36) (B.lcm (B.of_int 12) (B.of_int (-18)));
  Alcotest.check bigint "lcm 0" B.zero (B.lcm B.zero (B.of_int 3))

let test_pow () =
  Alcotest.check bigint "2^100"
    (B.of_string "1267650600228229401496703205376")
    (B.pow B.two 100);
  Alcotest.check bigint "x^0" B.one (B.pow (B.of_int 17) 0);
  Alcotest.check_raises "negative" (Invalid_argument "Bigint.pow: negative exponent")
    (fun () -> ignore (B.pow B.two (-1)))

let test_shift_left () =
  Alcotest.check bigint "1 << 62" (B.of_string "4611686018427387904") (B.shift_left B.one 62);
  Alcotest.check bigint "3 << 100"
    (B.mul (B.of_int 3) (B.pow B.two 100))
    (B.shift_left (B.of_int 3) 100)

let test_compare_orders () =
  let xs = [ "-100000000000000000000"; "-5"; "0"; "3"; "100000000000000000000" ] in
  let sorted = List.map B.of_string xs in
  let shuffled = List.rev sorted in
  Alcotest.(check (list string))
    "sort"
    xs
    (List.map B.to_string (List.sort B.compare shuffled))

let test_min_max () =
  let a = B.of_int (-3) and b = B.of_int 7 in
  Alcotest.check bigint "min" a (B.min a b);
  Alcotest.check bigint "max" b (B.max a b)

let test_fits_int () =
  Alcotest.(check bool) "small fits" true (B.fits_int (B.of_int 12345));
  Alcotest.(check bool) "2^200 does not" false (B.fits_int (B.pow B.two 200));
  Alcotest.(check (option int)) "to_int big" None (B.to_int (B.pow B.two 200))

(* ------------------------------------------------------------------ *)
(* Bigint property tests.                                              *)

let arb_small_int = QCheck.int_range (-1_000_000_000) 1_000_000_000

(* Big operands built from three native ints: (a * 2^62 + b) * sign. *)
let arb_big =
  QCheck.map
    (fun (a, b, neg) ->
      let v = B.add (B.mul (B.of_int (abs a)) (B.pow B.two 62)) (B.of_int (abs b)) in
      if neg then B.neg v else v)
    QCheck.(triple int int bool)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* Operands at the one-digit (2^30) and two-digit (2^60) edges, where
   the native-int fast paths hand over to the digit loops. *)
let arb_edge =
  QCheck.map
    (fun (k, d, neg) ->
      let v = B.add (B.pow B.two k) (B.of_int d) in
      if neg then B.neg v else v)
    QCheck.(triple (oneofl [ 0; 1; 29; 30; 31; 59; 60; 61; 62; 90 ]) (int_range (-3) 3) bool)

(* The representation is canonical: equal to its decimal re-parse. *)
let canonical x =
  let y = B.of_string (B.to_string x) in
  B.equal x y && B.hash x = B.hash y

let bigint_props =
  [
    prop "add matches int oracle" 1000 QCheck.(pair arb_small_int arb_small_int) (fun (a, b) ->
        B.equal (B.add (B.of_int a) (B.of_int b)) (B.of_int (a + b)));
    prop "mul matches int oracle" 1000 QCheck.(pair arb_small_int arb_small_int) (fun (a, b) ->
        B.equal (B.mul (B.of_int a) (B.of_int b)) (B.of_int (a * b)));
    prop "divmod matches int oracle" 1000 QCheck.(pair arb_small_int arb_small_int) (fun (a, b) ->
        QCheck.assume (b <> 0);
        let q, r = B.divmod (B.of_int a) (B.of_int b) in
        B.equal q (B.of_int (a / b)) && B.equal r (B.of_int (a mod b)));
    prop "compare matches int oracle" 1000 QCheck.(pair arb_small_int arb_small_int) (fun (a, b) ->
        compare a b = B.compare (B.of_int a) (B.of_int b));
    prop "string roundtrip" 500 arb_big (fun x -> B.equal x (B.of_string (B.to_string x)));
    prop "add commutes" 500 QCheck.(pair arb_big arb_big) (fun (a, b) ->
        B.equal (B.add a b) (B.add b a));
    prop "add associates" 300 QCheck.(triple arb_big arb_big arb_big) (fun (a, b, c) ->
        B.equal (B.add a (B.add b c)) (B.add (B.add a b) c));
    prop "mul distributes" 300 QCheck.(triple arb_big arb_big arb_big) (fun (a, b, c) ->
        B.equal (B.mul a (B.add b c)) (B.add (B.mul a b) (B.mul a c)));
    prop "divmod reconstructs" 500 QCheck.(pair arb_big arb_big) (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        B.equal a (B.add (B.mul q b) r) && B.compare (B.abs r) (B.abs b) < 0);
    prop "ediv_emod reconstructs with 0 <= r < |b|" 500 QCheck.(pair arb_big arb_big) (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.ediv_emod a b in
        B.equal a (B.add (B.mul q b) r) && B.sign r >= 0 && B.compare r (B.abs b) < 0);
    prop "gcd divides both" 500 QCheck.(pair arb_big arb_big) (fun (a, b) ->
        QCheck.assume (not (B.is_zero a) || not (B.is_zero b));
        let g = B.gcd a b in
        B.is_zero (B.rem a g) && B.is_zero (B.rem b g));
    prop "neg is involutive" 500 arb_big (fun a -> B.equal a (B.neg (B.neg a)));
    prop "sub self is zero" 500 arb_big (fun a -> B.is_zero (B.sub a a));
    prop "mul_int agrees with mul" 500 QCheck.(pair arb_big arb_small_int) (fun (a, n) ->
        B.equal (B.mul_int a n) (B.mul a (B.of_int n)));
    prop "hash respects equality" 500 arb_big (fun a ->
        B.hash a = B.hash (B.sub (B.add a B.one) B.one));
    prop "of_int at digit edges is canonical" 1000
      QCheck.(triple (int_range 0 62) (int_range (-3) 3) bool) (fun (k, d, neg) ->
        let n = (1 lsl k) + d in
        let n = if neg then -n else n in
        List.for_all
          (fun n -> canonical (B.of_int n) && B.to_string (B.of_int n) = string_of_int n)
          [ n; min_int; max_int ]);
    prop "divmod at digit edges reconstructs" 1000 QCheck.(pair arb_edge arb_edge) (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let q, r = B.divmod a b in
        canonical q && canonical r
        && B.equal a (B.add (B.mul q b) r)
        && B.compare (B.abs r) (B.abs b) < 0
        && (B.is_zero r || B.sign r = B.sign a));
    prop "add and mul at digit edges distribute" 1000 QCheck.(triple arb_edge arb_edge arb_edge)
      (fun (a, b, c) ->
        let l = B.mul a (B.add b c) and r = B.add (B.mul a b) (B.mul a c) in
        canonical (B.add b c) && canonical (B.mul a b) && canonical l && B.equal l r);
    prop "gcd at digit edges divides both, Euclid-invariant" 1000 QCheck.(pair arb_edge arb_edge)
      (fun (a, b) ->
        QCheck.assume (not (B.is_zero b));
        let g = B.gcd a b in
        canonical g && B.sign g > 0
        && B.is_zero (B.rem a g) && B.is_zero (B.rem b g)
        && B.equal g (B.gcd b (B.rem a b)));
  ]

(* ------------------------------------------------------------------ *)
(* Rational unit tests.                                                *)

let test_q_normalize () =
  Alcotest.check rational "6/4 = 3/2" (Q.of_ints 3 2) (Q.of_ints 6 4);
  Alcotest.check rational "neg den" (Q.of_ints (-1) 2) (Q.of_ints 1 (-2));
  Alcotest.check rational "zero" Q.zero (Q.of_ints 0 17);
  Alcotest.(check string) "print" "-1/2" (Q.to_string (Q.of_ints 2 (-4)))

let test_q_arith () =
  Alcotest.check rational "1/2 + 1/3" (Q.of_ints 5 6) (Q.add (Q.of_ints 1 2) (Q.of_ints 1 3));
  Alcotest.check rational "1/2 * 2/3" (Q.of_ints 1 3) (Q.mul (Q.of_ints 1 2) (Q.of_ints 2 3));
  Alcotest.check rational "(1/2) / (3/4)" (Q.of_ints 2 3) (Q.div (Q.of_ints 1 2) (Q.of_ints 3 4));
  Alcotest.check rational "sub" (Q.of_ints 1 6) (Q.sub (Q.of_ints 1 2) (Q.of_ints 1 3))

let test_q_floor_ceil () =
  Alcotest.check bigint "floor 7/2" (B.of_int 3) (Q.floor (Q.of_ints 7 2));
  Alcotest.check bigint "ceil 7/2" (B.of_int 4) (Q.ceil (Q.of_ints 7 2));
  Alcotest.check bigint "floor -7/2" (B.of_int (-4)) (Q.floor (Q.of_ints (-7) 2));
  Alcotest.check bigint "ceil -7/2" (B.of_int (-3)) (Q.ceil (Q.of_ints (-7) 2));
  Alcotest.check bigint "floor 3" (B.of_int 3) (Q.floor (Q.of_int 3));
  Alcotest.check bigint "ceil 3" (B.of_int 3) (Q.ceil (Q.of_int 3))

let test_q_compare () =
  Alcotest.(check bool) "1/3 < 1/2" true (Q.compare (Q.of_ints 1 3) (Q.of_ints 1 2) < 0);
  Alcotest.(check bool) "-1/2 < 1/3" true (Q.compare (Q.of_ints (-1) 2) (Q.of_ints 1 3) < 0);
  Alcotest.(check bool) "equal" true (Q.equal (Q.of_ints 2 4) (Q.of_ints 1 2))

let test_q_misc () =
  Alcotest.(check bool) "is_integer 4/2" true (Q.is_integer (Q.of_ints 4 2));
  Alcotest.(check bool) "is_integer 1/2" false (Q.is_integer (Q.of_ints 1 2));
  Alcotest.check bigint "to_bigint" (B.of_int 2) (Q.to_bigint (Q.of_ints 4 2));
  Alcotest.check_raises "inv zero" Division_by_zero (fun () -> ignore (Q.inv Q.zero));
  Alcotest.check_raises "make zero den" Division_by_zero (fun () ->
      ignore (Q.make B.one B.zero));
  Alcotest.(check (float 1e-9)) "to_float" 0.5 (Q.to_float (Q.of_ints 1 2))

let arb_q =
  QCheck.map
    (fun (n, d) -> Q.of_ints n (1 + abs d))
    QCheck.(pair (int_range (-10000) 10000) (int_range 0 9999))

(* Rationals whose numerator and denominator sit at the digit edges,
   integers (denominator one) among them. *)
let arb_q_edge =
  QCheck.map
    (fun (n, d, integer) ->
      if integer then Q.of_bigint n else Q.make n (if B.is_zero d then B.one else d))
    QCheck.(triple arb_edge arb_edge bool)

(* Cross-multiplied sum, product and comparison through [Q.make]: the
   reference the zero and integer shortcuts must reproduce. *)
let q_ref_add a b =
  Q.make
    (B.add (B.mul (Q.num a) (Q.den b)) (B.mul (Q.num b) (Q.den a)))
    (B.mul (Q.den a) (Q.den b))

let q_ref_mul a b = Q.make (B.mul (Q.num a) (Q.num b)) (B.mul (Q.den a) (Q.den b))

let q_ref_compare a b = B.compare (B.mul (Q.num a) (Q.den b)) (B.mul (Q.num b) (Q.den a))

let rational_props =
  [
    prop "q add, mul, compare at digit edges match the cross-multiplied reference" 1000
      QCheck.(pair arb_q_edge arb_q_edge) (fun (a, b) ->
        Q.to_string (Q.add a b) = Q.to_string (q_ref_add a b)
        && Q.to_string (Q.mul a b) = Q.to_string (q_ref_mul a b)
        && compare (Q.compare a b) 0 = compare (q_ref_compare a b) 0);
    prop "q zero operands at digit edges" 500 arb_q_edge (fun a ->
        Q.to_string (Q.add a Q.zero) = Q.to_string (q_ref_add a Q.zero)
        && Q.to_string (Q.add Q.zero a) = Q.to_string a
        && Q.to_string (Q.mul a Q.zero) = "0"
        && Q.is_zero (Q.mul Q.zero a)
        && B.is_one (Q.den (Q.mul a Q.zero)));
    prop "q add commutes" 500 QCheck.(pair arb_q arb_q) (fun (a, b) ->
        Q.equal (Q.add a b) (Q.add b a));
    prop "q mul inverse" 500 arb_q (fun a ->
        QCheck.assume (not (Q.is_zero a));
        Q.equal Q.one (Q.mul a (Q.inv a)));
    prop "q add neg is zero" 500 arb_q (fun a -> Q.is_zero (Q.add a (Q.neg a)));
    prop "q floor <= q < floor+1" 500 arb_q (fun a ->
        let f = Q.of_bigint (Q.floor a) in
        Q.compare f a <= 0 && Q.compare a (Q.add f Q.one) < 0);
    prop "q ceil-floor consistent" 500 arb_q (fun a ->
        if Q.is_integer a then B.equal (Q.floor a) (Q.ceil a)
        else B.equal (Q.ceil a) (B.succ (Q.floor a)));
    prop "q distributivity" 300 QCheck.(triple arb_q arb_q arb_q) (fun (a, b, c) ->
        Q.equal (Q.mul a (Q.add b c)) (Q.add (Q.mul a b) (Q.mul a c)));
    prop "q compare antisymmetric" 500 QCheck.(pair arb_q arb_q) (fun (a, b) ->
        Q.compare a b = -Q.compare b a);
  ]

let () =
  Alcotest.run "numbers"
    [
      ( "bigint-unit",
        [
          Alcotest.test_case "of_int/to_int roundtrip" `Quick test_of_to_int;
          Alcotest.test_case "string roundtrip" `Quick test_string_roundtrip;
          Alcotest.test_case "leading plus" `Quick test_string_leading_plus;
          Alcotest.test_case "addition carries" `Quick test_add_carries;
          Alcotest.test_case "multiplication known value" `Quick test_mul_known;
          Alcotest.test_case "divmod known value" `Quick test_divmod_known;
          Alcotest.test_case "divmod sign convention" `Quick test_divmod_signs;
          Alcotest.test_case "euclidean division" `Quick test_ediv_emod;
          Alcotest.test_case "floor/ceil division" `Quick test_fdiv_cdiv;
          Alcotest.test_case "division by zero" `Quick test_div_by_zero;
          Alcotest.test_case "gcd and lcm" `Quick test_gcd_lcm;
          Alcotest.test_case "pow" `Quick test_pow;
          Alcotest.test_case "shift_left" `Quick test_shift_left;
          Alcotest.test_case "comparison ordering" `Quick test_compare_orders;
          Alcotest.test_case "min/max" `Quick test_min_max;
          Alcotest.test_case "fits_int" `Quick test_fits_int;
        ] );
      ("bigint-props", bigint_props);
      ( "rational-unit",
        [
          Alcotest.test_case "normalization" `Quick test_q_normalize;
          Alcotest.test_case "arithmetic" `Quick test_q_arith;
          Alcotest.test_case "floor/ceil" `Quick test_q_floor_ceil;
          Alcotest.test_case "comparison" `Quick test_q_compare;
          Alcotest.test_case "misc" `Quick test_q_misc;
        ] );
      ("rational-props", rational_props);
    ]
