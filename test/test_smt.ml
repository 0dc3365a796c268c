(* Tests for the linear-arithmetic solver stack: known systems, sign/
   boundary cases, and property tests that cross-validate the simplex and
   branch-and-bound against brute-force enumeration on a small box. *)

module B = Numbers.Bigint
module Q = Numbers.Rational
module L = Smt.Linexpr
module A = Smt.Atom
module F = Smt.Formula

let v = L.var
let c n = L.const (Q.of_int n)

let prop name count arb f = QCheck_alcotest.to_alcotest (QCheck.Test.make ~name ~count arb f)

(* ------------------------------------------------------------------ *)
(* Linexpr.                                                             *)

let test_linexpr_basics () =
  let e = L.of_int_terms [ (2, 0); (3, 1); (-2, 0) ] 5 in
  Alcotest.(check string) "normalized" "3*x1 + 5" (L.to_string e);
  Alcotest.(check bool) "coeff x0 = 0" true (Q.is_zero (L.coeff 0 e));
  Alcotest.(check (list int)) "vars" [ 1 ] (L.vars e);
  let e2 = L.sub e (L.term (Q.of_int 3) 1) in
  Alcotest.(check bool) "const after sub" true (L.is_const e2)

let test_linexpr_eval () =
  let e = L.of_int_terms [ (2, 0); (-1, 1) ] 7 in
  let assign x = if x = 0 then Q.of_int 3 else Q.of_int 4 in
  Alcotest.(check string) "eval" "9" (Q.to_string (L.eval assign e))

let test_linexpr_scale_to_integers () =
  let e = L.of_terms [ (Q.of_ints 1 2, 0); (Q.of_ints 2 3, 1) ] (Q.of_ints 5 6) in
  let e' = L.scale_to_integers e in
  List.iter
    (fun (coef, _) -> Alcotest.(check bool) "integer coeff" true (Q.is_integer coef))
    (L.terms e');
  Alcotest.(check bool) "integer const" true (Q.is_integer (L.constant e'))

let test_linexpr_subst () =
  (* x0 + 2*x1, with x1 := x2 + 1, gives x0 + 2*x2 + 2 *)
  let e = L.of_int_terms [ (1, 0); (2, 1) ] 0 in
  let by = L.of_int_terms [ (1, 2) ] 1 in
  let e' = L.subst 1 by e in
  Alcotest.(check string) "subst" "x0 + 2*x2 + 2" (L.to_string e')

(* ------------------------------------------------------------------ *)
(* Simplex: rational satisfiability.                                    *)

let simplex_sat atoms =
  match Smt.Simplex.solve atoms with
  | Smt.Simplex.Sat model ->
    let assign x = match List.assoc_opt x model with Some q -> q | None -> Q.zero in
    Alcotest.(check bool) "model satisfies atoms" true (List.for_all (A.holds assign) atoms);
    true
  | Smt.Simplex.Unsat -> false
  | Smt.Simplex.Unknown -> Alcotest.fail "unexpected Simplex.Unknown"

let test_simplex_feasible () =
  (* x >= 1, y >= 1, x + y <= 10 *)
  Alcotest.(check bool) "feasible" true
    (simplex_sat [ A.ge (v 0) (c 1); A.ge (v 1) (c 1); A.le (L.add (v 0) (v 1)) (c 10) ])

let test_simplex_infeasible () =
  (* x >= 5, x <= 3 *)
  Alcotest.(check bool) "infeasible" false
    (simplex_sat [ A.ge (v 0) (c 5); A.le (v 0) (c 3) ])

let test_simplex_strict () =
  (* x > 0, x < 1 is rationally feasible *)
  Alcotest.(check bool) "open interval" true
    (simplex_sat [ A.gt (v 0) (c 0); A.lt (v 0) (c 1) ]);
  (* x > 0, x < 0 is not *)
  Alcotest.(check bool) "empty open interval" false
    (simplex_sat [ A.gt (v 0) (c 0); A.lt (v 0) (c 0) ]);
  (* x >= 0 and x <= 0 and x < 0 is not *)
  Alcotest.(check bool) "point vs strict" false
    (simplex_sat [ A.ge (v 0) (c 0); A.lt (v 0) (c 0) ])

let test_simplex_equalities () =
  (* x + y = 4, x - y = 2 has solution x=3,y=1 *)
  Alcotest.(check bool) "equalities" true
    (simplex_sat [ A.eq (L.add (v 0) (v 1)) (c 4); A.eq (L.sub (v 0) (v 1)) (c 2) ]);
  (* inconsistent equalities *)
  Alcotest.(check bool) "inconsistent" false
    (simplex_sat [ A.eq (v 0) (c 1); A.eq (v 0) (c 2) ])

let test_simplex_needs_pivot () =
  (* A system where the initial zero assignment violates basics:
     x + y >= 2, x - y >= 0, x <= 1  =>  x=1, y in [1, 1] *)
  Alcotest.(check bool) "pivoting" true
    (simplex_sat
       [ A.ge (L.add (v 0) (v 1)) (c 2); A.ge (L.sub (v 0) (v 1)) (c 0); A.le (v 0) (c 1) ])

let test_simplex_degenerate () =
  (* Shared linear part with different bounds: x+y <= 3 and x+y >= 3. *)
  Alcotest.(check bool) "tight" true
    (simplex_sat [ A.le (L.add (v 0) (v 1)) (c 3); A.ge (L.add (v 0) (v 1)) (c 3) ]);
  Alcotest.(check bool) "crossing" false
    (simplex_sat [ A.le (L.add (v 0) (v 1)) (c 3); A.ge (L.add (v 0) (v 1)) (c 4) ])

let test_simplex_trivial_atoms () =
  Alcotest.(check bool) "0 <= 1" true (simplex_sat [ A.le (c 0) (c 1) ]);
  Alcotest.(check bool) "1 <= 0" false (simplex_sat [ A.le (c 1) (c 0) ]);
  Alcotest.(check bool) "empty" true (simplex_sat [])

(* ------------------------------------------------------------------ *)
(* LIA: integer satisfiability.                                         *)

let lia_result atoms =
  match Smt.Lia.solve atoms with
  | Smt.Lia.Sat model ->
    Alcotest.(check bool) "model satisfies atoms" true (Smt.Lia.check_model atoms model);
    `Sat
  | Smt.Lia.Unsat -> `Unsat
  | Smt.Lia.Unknown | Smt.Lia.Timeout -> `Unknown

let test_lia_gap () =
  (* 2x = 1 has no integer solution but a rational one. *)
  Alcotest.(check bool) "2x=1" true (`Unsat = lia_result [ A.eq (L.scale (Q.of_int 2) (v 0)) (c 1) ]);
  (* 0 < x < 1 has no integer solution *)
  Alcotest.(check bool) "open unit interval" true
    (`Unsat = lia_result [ A.gt (v 0) (c 0); A.lt (v 0) (c 1) ]);
  (* 3x + 3y = 2 infeasible mod 3 *)
  Alcotest.(check bool) "mod gap" true
    (`Unsat
    = lia_result [ A.eq (L.add (L.scale (Q.of_int 3) (v 0)) (L.scale (Q.of_int 3) (v 1))) (c 2) ])

let test_lia_feasible () =
  Alcotest.(check bool) "x in [2,2]" true
    (`Sat = lia_result [ A.ge (v 0) (c 2); A.le (v 0) (c 2) ]);
  (* 2x + 3y = 7, x,y >= 0: (2,1) works *)
  Alcotest.(check bool) "diophantine" true
    (`Sat
    = lia_result
        [ A.eq (L.of_int_terms [ (2, 0); (3, 1) ] 0) (c 7);
          A.ge (v 0) (c 0); A.ge (v 1) (c 0) ])

let test_lia_rational_coeffs () =
  (* x/2 >= 1/3 over integers means x >= 1 *)
  let atoms = [ A.ge (L.term (Q.of_ints 1 2) 0) (L.const (Q.of_ints 1 3)); A.le (v 0) (c 0) ] in
  Alcotest.(check bool) "scaled strictness" true (`Unsat = lia_result atoms)

let test_lia_resilience_shape () =
  (* The recurring shape of the checker's queries:
     n > 3t, t >= f >= 0, and counters summing to n - f. *)
  let n = 0 and t = 1 and f = 2 and k0 = 3 and k1 = 4 in
  let base =
    [ A.gt (v n) (L.scale (Q.of_int 3) (v t));
      A.ge (v t) (v f); A.ge (v f) (c 0);
      A.ge (v k0) (c 0); A.ge (v k1) (c 0);
      A.eq (L.add (v k0) (v k1)) (L.sub (v n) (v f)) ]
  in
  Alcotest.(check bool) "base is sat" true (`Sat = lia_result base);
  (* Adding k0 >= n and k1 >= 1 forces f < 0: unsat. *)
  Alcotest.(check bool) "pigeonhole unsat" true
    (`Unsat = lia_result (A.ge (v k0) (v n) :: A.ge (v k1) (c 1) :: base))

let test_lia_budget_unknown () =
  (* A zero budget must surface as Unknown, never as a wrong verdict. *)
  let atoms = [ A.ge (v 0) (c 1); A.le (v 0) (c 5) ] in
  Alcotest.(check bool) "unknown on empty budget" true
    (Smt.Lia.solve ~max_steps:0 atoms = Smt.Lia.Unknown)

let test_simplex_delta_exposed () =
  (* x > 1/2 with x < 1: the delta-rational witness has a nonzero
     infinitesimal part, and concretization still lands strictly
     inside. *)
  let atoms = [ A.gt (v 0) (L.const (Q.of_ints 1 2)); A.lt (v 0) (c 1) ] in
  match Smt.Simplex.solve_delta atoms with
  | None -> Alcotest.fail "expected rational feasibility"
  | Some deltas ->
    Alcotest.(check int) "one variable" 1 (List.length deltas);
    (match Smt.Simplex.solve atoms with
     | Smt.Simplex.Sat [ (0, q) ] ->
       Alcotest.(check bool) "strictly inside" true
         (Q.compare q (Q.of_ints 1 2) > 0 && Q.compare q Q.one < 0)
     | _ -> Alcotest.fail "expected a model for variable 0")

(* ------------------------------------------------------------------ *)
(* Brute-force cross-validation.                                        *)

(* Random atoms over 3 variables with coefficients in [-3,3] and
   constants in [-6,6]; brute force over the box [0,6]^3 versus LIA
   restricted to the same box. *)
let arb_atom =
  QCheck.map
    (fun (c0, c1, c2, k, rel) ->
      let expr = L.of_int_terms [ (c0, 0); (c1, 1); (c2, 2) ] k in
      let rel = match rel mod 3 with 0 -> A.Le | 1 -> A.Lt | _ -> A.Eq in
      { A.expr; rel })
    QCheck.(
      tup5 (int_range (-3) 3) (int_range (-3) 3) (int_range (-3) 3) (int_range (-6) 6)
        (int_range 0 2))

let box_atoms =
  List.concat_map
    (fun x -> [ A.ge (v x) (c 0); A.le (v x) (c 6) ])
    [ 0; 1; 2 ]

let brute_force_sat atoms =
  let found = ref false in
  for x = 0 to 6 do
    for y = 0 to 6 do
      for z = 0 to 6 do
        if not !found then begin
          let assign i =
            Q.of_int (match i with 0 -> x | 1 -> y | 2 -> z | _ -> 0)
          in
          if List.for_all (A.holds assign) atoms then found := true
        end
      done
    done
  done;
  !found

(* Random conjunctions of 1 to 8 atoms over 5 unbounded variables, with
   coefficients in [-3,3] and constants in [-10,10]: enough pivots,
   degenerate rows and strict bounds to exercise the tableau. *)
let arb_conj =
  let atom =
    QCheck.Gen.(
      map
        (fun (cs, k, rel) ->
          let expr = L.of_int_terms (List.mapi (fun x c -> (c, x)) cs) k in
          { A.expr; rel = (match rel with 0 -> A.Le | 1 -> A.Lt | _ -> A.Eq) })
        (triple (list_repeat 5 (int_range (-3) 3)) (int_range (-10) 10) (int_range 0 2)))
  in
  QCheck.make
    ~print:(fun atoms -> String.concat " & " (List.map (fun a -> A.to_string a) atoms))
    QCheck.Gen.(list_size (int_range 1 8) atom)

let small_box =
  List.concat_map (fun x -> [ A.ge (v x) (c (-4)); A.le (v x) (c 4) ]) [ 0; 1; 2; 3; 4 ]

let smt_props =
  [
    prop "lia agrees with brute force on a box" 300 QCheck.(list_of_size (Gen.int_range 1 4) arb_atom)
      (fun atoms ->
        let all = atoms @ box_atoms in
        let expected = brute_force_sat all in
        match Smt.Lia.solve all with
        | Smt.Lia.Sat model -> expected && Smt.Lia.check_model all model
        | Smt.Lia.Unsat -> not expected
        | Smt.Lia.Unknown | Smt.Lia.Timeout -> false);
    prop "simplex models satisfy their atoms" 300 QCheck.(list_of_size (Gen.int_range 1 4) arb_atom)
      (fun atoms ->
        let all = atoms @ box_atoms in
        match Smt.Simplex.solve all with
        | Smt.Simplex.Sat model ->
          let assign x = match List.assoc_opt x model with Some q -> q | None -> Q.zero in
          List.for_all (A.holds assign) all
        | Smt.Simplex.Unsat ->
          (* Rational unsat must imply integer unsat. *)
          not (brute_force_sat all)
        | Smt.Simplex.Unknown -> false);
    prop "simplex matches the IntMap tableau oracle" 1000 arb_conj (fun atoms ->
        let same_model m m' =
          List.length m = List.length m'
          && List.for_all2 (fun (x, d) (x', d') -> x = x' && Smt.Delta.equal d d') m m'
        in
        match (Smt.Simplex.solve_delta atoms, Simplex_oracle.solve_delta atoms) with
        | None, None -> true
        | Some m, Some m' -> same_model m m'
        | _ -> false);
    prop "session verdicts match the oracle across push and pop" 500
      QCheck.(pair arb_conj arb_conj) (fun (base, extra) ->
        (* [base] permanently, [extra] in a frame, then [base] again after
           the pop: the warm tableau must decide both like the oracle. *)
        let s = Smt.Simplex.Session.create () in
        let agrees atoms =
          match (Smt.Simplex.Session.check s, Simplex_oracle.solve_delta atoms) with
          | `Sat, Some _ ->
            List.for_all (A.holds_delta (Smt.Simplex.Session.value s)) atoms
          | `Unsat _, None -> true
          | _ -> false
        in
        List.iter (Smt.Simplex.Session.assert_atom s) base;
        let before = agrees base in
        Smt.Simplex.Session.push s;
        List.iter (Smt.Simplex.Session.assert_atom s) extra;
        let inside = agrees (base @ extra) in
        Smt.Simplex.Session.pop s;
        before && inside && agrees base);
    prop "certifying solver's refutations replay" 300 arb_conj (fun atoms ->
        let all = atoms @ small_box in
        match Smt.Lia.solve_cert all with
        | Smt.Lia.Cert_unsat cert -> Smt.Certcheck.validate all cert = Ok ()
        | Smt.Lia.Cert_sat model -> Smt.Lia.check_model all model
        | Smt.Lia.Cert_unknown | Smt.Lia.Cert_timeout -> false);
  ]

(* ------------------------------------------------------------------ *)
(* [Smt.Lia.solve] against its frozen rational front end
   ({!Lia_oracle}): the same result, the same model and the same step
   count, on random conjunctions, on queries that leave the native
   integer range, and on the queries the checker actually builds.       *)

let same_result (r : Smt.Lia.result) (r' : Smt.Lia.result) =
  match (r, r') with
  | Smt.Lia.Sat m, Smt.Lia.Sat m' ->
    List.equal (fun (x, b) (x', b') -> x = x' && B.equal b b') m m'
  | Smt.Lia.Unsat, Smt.Lia.Unsat | Smt.Lia.Unknown, Smt.Lia.Unknown -> true
  | _ -> false

let result_to_string = function
  | Smt.Lia.Sat m ->
    "sat "
    ^ String.concat ", " (List.map (fun (x, b) -> Printf.sprintf "x%d=%s" x (B.to_string b)) m)
  | Smt.Lia.Unsat -> "unsat"
  | Smt.Lia.Unknown -> "unknown"
  | Smt.Lia.Timeout -> "timeout"

(* Solve [atoms] with the library and with the oracle; fail with both
   answers on any difference.  Returns the library's result. *)
let agree_with_oracle ?max_steps atoms =
  let steps = ref 0 and steps' = ref 0 in
  let r = Smt.Lia.solve ~steps ?max_steps atoms in
  let r' = Lia_oracle.solve ~steps:steps' ?max_steps atoms in
  if not (same_result r r' && !steps = !steps') then
    Alcotest.failf "%s\nlibrary: %s (%d steps)\noracle:  %s (%d steps)"
      (String.concat " & " (List.map (fun a -> A.to_string a) atoms))
      (result_to_string r) !steps (result_to_string r') !steps';
  r

(* Conjunctions over six variables, biased toward chains of equalities
   with a +-1 coefficient (the shape equality elimination cascades on),
   with strict atoms, rational coefficients, equalities that only GCD
   tightening can refute, and the odd constant atom, true or false.
   Half of them are boxed in so that many are satisfiable and the
   reconstructed models get compared. *)
let arb_front_end =
  let open QCheck.Gen in
  let var = int_range 0 5 in
  let others = list_size (int_range 0 3) (pair (int_range (-3) 3) var) in
  let rel = oneofl [ A.Le; A.Lt; A.Eq ] in
  let unit_eq =
    map
      (fun (x, s, rest, k) -> { A.expr = L.of_int_terms ((s, x) :: rest) k; rel = A.Eq })
      (quad var (oneofl [ 1; -1 ]) others (int_range (-5) 5))
  in
  let ineq =
    map
      (fun (rest, k, strict) ->
        { A.expr = L.of_int_terms rest k; rel = (if strict then A.Lt else A.Le) })
      (triple (list_size (int_range 1 3) (pair (int_range (-3) 3) var)) (int_range (-8) 8) bool)
  in
  let rational =
    map
      (fun (rest, (n, d), rel) ->
        { A.expr =
            L.of_terms (List.map (fun ((n, d), x) -> (Q.of_ints n d, x)) rest) (Q.of_ints n d);
          rel })
      (triple
         (list_size (int_range 1 3) (pair (pair (int_range (-4) 4) (int_range 1 4)) var))
         (pair (int_range (-9) 9) (int_range 1 4))
         rel)
  in
  let wide_eq =
    map
      (fun (rest, k) -> { A.expr = L.of_int_terms rest k; rel = A.Eq })
      (pair (list_size (int_range 1 3) (pair (oneofl [ -4; -3; -2; 2; 3; 4 ]) var)) (int_range (-6) 6))
  in
  let constant = map (fun (k, rel) -> { A.expr = c k; rel }) (pair (int_range (-2) 2) rel) in
  let atom =
    frequency [ (6, unit_eq); (4, ineq); (2, rational); (2, wide_eq); (1, constant) ]
  in
  let box = List.concat_map (fun x -> [ A.ge (v x) (c (-5)); A.le (v x) (c 5) ]) [ 0; 1; 2; 3; 4; 5 ] in
  (* Spread-out variable ids make the occurrence lists too sparse to
     index by variable. *)
  let spread = List.map (fun (a : A.t) -> { a with A.expr = L.map_vars (fun x -> 1_000_003 * x) a.expr }) in
  QCheck.make
    ~print:(fun atoms -> String.concat " & " (List.map (fun a -> A.to_string a) atoms))
    (map3
       (fun atoms boxed sparse ->
         let atoms = if boxed then atoms @ box else atoms in
         if sparse then spread atoms else atoms)
       (list_size (int_range 1 10) atom) bool (frequencyl [ (4, false); (1, true) ]))

let front_end_props =
  [
    prop "lia matches the rational front-end oracle" 2000 arb_front_end (fun atoms ->
        ignore (agree_with_oracle ~max_steps:200 atoms);
        true);
  ]

(* Coefficients at or near 2^61 leave the native range — on input, in
   the scaling to integers, and midway through a substitution — so each
   query is decided through the rational fallback, and must still agree
   with the oracle. *)
let test_lia_front_end_overflow () =
  let big k = Q.of_bigint (B.add (B.of_int (1 lsl 61)) (B.of_int k)) in
  let q n d = Q.make (B.of_int n) (B.of_int d) in
  let expr terms k = L.of_terms terms k in
  let queries =
    [ (* An input coefficient above 2^61. *)
      [ { A.expr = expr [ (big 3, 0); (Q.one, 1) ] Q.minus_one; rel = A.Eq };
        A.ge (v 0) (c 0);
        A.le (v 0) (c 1) ];
      (* In range on input; x0 = 2^60 x1 substituted into the second
         atom makes its x1 coefficient 2^61. *)
      [ { A.expr = expr [ (Q.one, 0); (Q.neg (big (-(1 lsl 60))), 1) ] Q.zero; rel = A.Eq };
        { A.expr = expr [ (Q.one, 0); (Q.one, 2); (big (-(1 lsl 60)), 1) ] Q.zero; rel = A.Le };
        A.ge (v 1) (c 1);
        A.le (v 1) (c 2) ];
      (* Denominators whose lcm exceeds 2^61. *)
      [ { A.expr = expr [ (q 1 (1 lsl 40), 0); (q 1 ((1 lsl 40) + 1), 1) ] Q.minus_one;
          rel = A.Le };
        { A.expr = expr [ (Q.one, 0); (Q.minus_one, 1) ] Q.zero; rel = A.Eq };
        A.ge (v 1) (c 3) ];
      (* A chain whose second substitution overflows: x0 = x1, then
         x1 = (2^61 - 1) x2 turns x1 + x2 into 2^61 x2. *)
      [ { A.expr = expr [ (Q.one, 0); (Q.minus_one, 1) ] Q.zero; rel = A.Eq };
        { A.expr = expr [ (Q.one, 1); (Q.neg (big (-1)), 2) ] Q.zero; rel = A.Eq };
        { A.expr = expr [ (Q.one, 0); (Q.one, 2); (Q.one, 3) ] Q.zero; rel = A.Le };
        A.ge (v 2) (c 1) ];
      (* An overflowing query the fallback refutes. *)
      [ { A.expr = expr [ (big 3, 0); (Q.one, 1) ] Q.minus_one; rel = A.Eq };
        A.ge (v 0) (c 2);
        A.le (v 0) (c 1) ] ]
  in
  List.iter (fun atoms -> ignore (agree_with_oracle atoms)) queries

(* Every leaf query {!Flat.decide} would solve on the first [limit]
   preorder schemas of [spec] (all of them up to the first violation
   when [until_sat]): the conjunctive part, and when it is satisfiable
   the justice case split, as on the checker's own schema walk.
   Returns the number of queries and whether a violation was found. *)
let compare_schema_queries ?(until_sat = false) ~limit automaton spec =
  let u = Holistic.Universe.build automaton in
  let max_steps = Holistic.Checker.default_limits.lia_max_steps in
  let queries = ref 0 and schemas = ref 0 and violated = ref false in
  let leaf atoms =
    incr queries;
    match agree_with_oracle ~max_steps atoms with
    | Smt.Lia.Sat _ -> `Sat
    | Smt.Lia.Unsat -> `Unsat
    | Smt.Lia.Unknown | Smt.Lia.Timeout -> `Unknown
  in
  let rec go atoms = function
    | [] -> leaf atoms
    | alternatives :: rest ->
      let rec try_alts = function
        | [] -> `Unsat
        | cube :: others -> (
          match go (cube @ atoms) rest with `Unsat -> try_alts others | r -> r)
      in
      try_alts alternatives
  in
  ignore
    (Holistic.Schema.enumerate u spec ~on_schema:(fun schema ->
         incr schemas;
         let e = Holistic.Encode.encode u spec schema in
         let verdict =
           match leaf e.atoms with
           | `Sat when e.branches <> [] -> go e.atoms e.branches
           | r -> r
         in
         if verdict = `Sat then violated := true;
         !schemas < limit && not (until_sat && !violated)));
  (!queries, !violated)

let test_lia_front_end_schema_queries () =
  let simplified = Models.Simplified_ta.automaton in
  List.iter
    (fun spec ->
      let n, _ = compare_schema_queries ~limit:300 simplified spec in
      Alcotest.(check bool) "queries compared" true (n >= 300))
    [ Models.Simplified_ta.sround_term; Models.Simplified_ta.inv1_0 ];
  let _, violated =
    compare_schema_queries ~until_sat:true ~limit:max_int
      Models.Simplified_ta.automaton_broken_resilience Models.Simplified_ta.inv1_0
  in
  Alcotest.(check bool) "broken resilience: witness schema reached" true violated

(* ------------------------------------------------------------------ *)
(* Atom canonicalization (GCD-normalized equality) and hashing.         *)

let test_atom_canonical_equal () =
  let a = { A.expr = L.of_int_terms [ (2, 0); (4, 1) ] 6; rel = A.Le } in
  let b = { A.expr = L.of_int_terms [ (1, 0); (2, 1) ] 3; rel = A.Le } in
  Alcotest.(check bool) "gcd-normalized atoms equal" true (A.equal a b);
  Alcotest.(check int) "hashes agree" (A.hash a) (A.hash b);
  Alcotest.(check int) "compare is zero" 0 (A.compare a b);
  let half = { A.expr = L.of_terms [ (Q.of_ints 1 2, 0) ] (Q.of_ints 1 2); rel = A.Le } in
  let unit = { A.expr = L.of_int_terms [ (1, 0) ] 1; rel = A.Le } in
  Alcotest.(check bool) "rational scaling normalized" true (A.equal half unit);
  let eq_neg = { A.expr = L.of_int_terms [ (-3, 0) ] 3; rel = A.Eq } in
  let eq_pos = { A.expr = L.of_int_terms [ (1, 0) ] (-1); rel = A.Eq } in
  Alcotest.(check bool) "equality sign normalized" true (A.equal eq_neg eq_pos);
  (* 2x + 1 <= 0 is NOT x + 1 <= 0: the gcd of {2, 1} is 1. *)
  let odd = { A.expr = L.of_int_terms [ (2, 0) ] 1; rel = A.Le } in
  Alcotest.(check bool) "distinct atoms stay distinct" false (A.equal odd unit);
  (* Le must not be sign-normalized: x <= 0 and -x <= 0 differ. *)
  let le = { A.expr = L.of_int_terms [ (1, 0) ] 0; rel = A.Le } in
  let ge = { A.expr = L.of_int_terms [ (-1, 0) ] 0; rel = A.Le } in
  Alcotest.(check bool) "le keeps its sign" false (A.equal le ge)

(* ------------------------------------------------------------------ *)
(* Discharge-cache fingerprint canonicality (Smt.Qcache).  The cache key
   must be a pure function of the query's canonical atom set: permuting
   the atom list, positively rescaling any atom, and injecting duplicate
   atoms must all map to the same key (and the same canonical atom
   list), while queries with different canonical sets must separate.    *)

let qcache_props =
  let arb_query = QCheck.(list_of_size (Gen.int_range 1 6) arb_atom) in
  [
    prop "fingerprint invariant under permutation/rescaling/duplication" 500
      QCheck.(pair arb_query small_nat)
      (fun (atoms, seed) ->
        let key, catoms = Smt.Qcache.fingerprint atoms in
        (* Deterministic scramble from the seed: rescale every atom by a
           positive factor, duplicate one atom, then shuffle. *)
        let st = Random.State.make [| seed |] in
        let rescaled =
          List.map
            (fun a ->
              let m = Q.of_int (1 + Random.State.int st 7) in
              { a with A.expr = L.scale m a.A.expr })
            atoms
        in
        let doubled = List.nth rescaled (Random.State.int st (List.length rescaled)) :: rescaled in
        let shuffled =
          List.map snd
            (List.sort compare
               (List.map (fun a -> (Random.State.bits st, a)) doubled))
        in
        let key', catoms' = Smt.Qcache.fingerprint shuffled in
        String.equal key key' && List.equal A.equal_canonical catoms catoms');
    prop "fingerprint separates queries with distinct canonical sets" 500
      QCheck.(pair arb_query arb_query)
      (fun (q1, q2) ->
        let key1, catoms1 = Smt.Qcache.fingerprint q1 in
        let key2, catoms2 = Smt.Qcache.fingerprint q2 in
        if List.equal A.equal_canonical catoms1 catoms2 then String.equal key1 key2
        else not (String.equal key1 key2));
    prop "compare_canonical agrees with compare on canonical atoms" 500
      QCheck.(pair arb_atom arb_atom)
      (fun (a, b) ->
        let ca = A.canonical a and cb = A.canonical b in
        Stdlib.compare (A.compare_canonical ca cb) 0
        = Stdlib.compare (A.compare ca cb) 0
        && A.equal_canonical ca cb = A.equal a b);
  ]

(* ------------------------------------------------------------------ *)
(* The incremental assertion stack (Lia session over Simplex.Session).  *)

let is_sat = function Smt.Lia.Sat _ -> true | _ -> false

let test_lia_session_push_pop () =
  let s = Smt.Lia.create () in
  Smt.Lia.assert_atoms s
    [ A.ge (v 0) (c 1); A.ge (v 1) (c 1); A.le (L.add (v 0) (v 1)) (c 10) ];
  Alcotest.(check bool) "base sat" true (is_sat (Smt.Lia.check s));
  Smt.Lia.push s;
  Smt.Lia.assert_atoms s [ A.le (L.add (v 0) (v 1)) (c 1) ];
  Alcotest.(check bool) "tightened unsat" true (Smt.Lia.check s = Smt.Lia.Unsat);
  Smt.Lia.pop s;
  Alcotest.(check bool) "sat restored by pop" true (is_sat (Smt.Lia.check s));
  Smt.Lia.push s;
  Smt.Lia.assert_atoms s [ A.ge (v 0) (c 6); A.ge (v 1) (c 6) ];
  Alcotest.(check bool) "sum bound unsat" true (Smt.Lia.check s = Smt.Lia.Unsat);
  Smt.Lia.pop s;
  Smt.Lia.push s;
  (* 2x = 1: infeasible over the integers at assert time (GCD
     tightening), so the check must cost zero simplex steps. *)
  let steps = ref 0 in
  Smt.Lia.assert_atoms s [ { A.expr = L.of_int_terms [ (2, 0) ] (-1); rel = A.Eq } ];
  Alcotest.(check bool) "divisibility unsat" true
    (Smt.Lia.check ~steps s = Smt.Lia.Unsat);
  Alcotest.(check int) "unsat for free" 0 !steps;
  Smt.Lia.pop s;
  Alcotest.(check bool) "sat after deep pops" true (is_sat (Smt.Lia.check s))

let test_lia_session_model_cache () =
  let s = Smt.Lia.create () in
  let hits = ref 0 in
  Smt.Lia.assert_atoms s [ A.ge (v 0) (c 0) ];
  Alcotest.(check bool) "first check solves" true (is_sat (Smt.Lia.check ~hits s));
  Alcotest.(check int) "no hit on first check" 0 !hits;
  Smt.Lia.push s;
  let steps = ref 0 in
  Smt.Lia.assert_atoms s [ A.ge (v 1) (c 0) ];
  Alcotest.(check bool) "extended still sat" true (is_sat (Smt.Lia.check ~hits ~steps s));
  Alcotest.(check int) "cached model reused" 1 !hits;
  Alcotest.(check int) "hit costs no steps" 0 !steps

(* The assert-time interval propagation behind [check_quick]: bound
   chains refute the conjunction with zero simplex work, and the trail
   restores the store on pop.  The pattern mirrors the prefixes the
   incremental checker prunes: a variable pinned to zero bounds another
   from above, against a positive threshold. *)
let test_lia_session_check_quick () =
  let s = Smt.Lia.create () in
  let hits = ref 0 in
  Smt.Lia.assert_atoms s
    [ A.eq (v 0) (c 0); A.le (v 1) (v 0); A.ge (v 1) (c 0) ];
  Alcotest.(check bool) "open prefix undecided" true
    (Smt.Lia.check_quick ~hits s = Smt.Lia.Unknown);
  Alcotest.(check int) "no hit while undecided" 0 !hits;
  Smt.Lia.push s;
  Smt.Lia.assert_atoms s [ A.ge (v 1) (c 1) ];
  Alcotest.(check bool) "threshold against pinned zero refuted" true
    (Smt.Lia.check_quick ~hits s = Smt.Lia.Unsat);
  Alcotest.(check int) "refutation counts as a hit" 1 !hits;
  (* The full check agrees, still without simplex steps. *)
  let steps = ref 0 in
  Alcotest.(check bool) "check agrees" true (Smt.Lia.check ~steps s = Smt.Lia.Unsat);
  Alcotest.(check int) "refuted for free" 0 !steps;
  Smt.Lia.pop s;
  Alcotest.(check bool) "pop restores the bound store" true
    (is_sat (Smt.Lia.check s));
  (* A three-step chain: x2 <= x1 <= x0 = 0 against x2 >= 5, refuted
     across separate assertions (the fixpoint pass re-propagates the
     already-asserted chain). *)
  Smt.Lia.push s;
  Smt.Lia.assert_atoms s [ A.le (v 2) (v 1) ];
  Smt.Lia.assert_atoms s [ A.ge (v 2) (c 5) ];
  Alcotest.(check bool) "chained bound conflict refuted" true
    (Smt.Lia.check_quick s = Smt.Lia.Unsat);
  Smt.Lia.pop s;
  Alcotest.(check bool) "chain retracted" true (is_sat (Smt.Lia.check s))

let session_props =
  [
    prop "session agrees with flat solve across push/pop" 200
      QCheck.(
        pair (list_of_size (Gen.int_range 1 4) arb_atom)
          (list_of_size (Gen.int_range 0 3) arb_atom))
      (fun (base, extra) ->
        let s = Smt.Lia.create () in
        let base = base @ box_atoms in
        Smt.Lia.assert_atoms s base;
        let agree asserted =
          match (Smt.Lia.check s, Smt.Lia.solve asserted) with
          | Smt.Lia.Sat m, Smt.Lia.Sat _ -> Smt.Lia.check_model asserted m
          | Smt.Lia.Unsat, Smt.Lia.Unsat -> true
          | Smt.Lia.Unknown, _ | _, Smt.Lia.Unknown -> true
          | _ -> false
        in
        agree base
        && begin
          Smt.Lia.push s;
          Smt.Lia.assert_atoms s extra;
          let ok = agree (extra @ base) in
          Smt.Lia.pop s;
          ok
        end
        && agree base);
  ]

(* ------------------------------------------------------------------ *)
(* Formula and DNF.                                                     *)

let test_formula_smart_constructors () =
  Alcotest.(check bool) "conj []" true (F.conj [] = F.True);
  Alcotest.(check bool) "disj []" true (F.disj [] = F.False);
  Alcotest.(check bool) "conj false" true (F.conj [ F.tt; F.ff ] = F.False);
  Alcotest.(check bool) "disj true" true (F.disj [ F.ff; F.tt ] = F.True);
  Alcotest.(check bool) "double neg" true (F.not_ (F.not_ (F.atom (A.le (v 0) (c 1)))) = F.atom (A.le (v 0) (c 1)))

let test_formula_eval () =
  let f =
    F.conj [ F.atom (A.ge (v 0) (c 1)); F.disj [ F.atom (A.le (v 1) (c 0)); F.atom (A.ge (v 1) (c 5)) ] ]
  in
  let assign a b x = Q.of_int (if x = 0 then a else b) in
  Alcotest.(check bool) "1,0 sat" true (F.eval (assign 1 0) f);
  Alcotest.(check bool) "1,5 sat" true (F.eval (assign 1 5) f);
  Alcotest.(check bool) "1,3 unsat" false (F.eval (assign 1 3) f);
  Alcotest.(check bool) "0,0 unsat" false (F.eval (assign 0 0) f)

let test_dnf_equivalence () =
  let f =
    F.not_
      (F.disj
         [ F.atom (A.ge (v 0) (c 1));
           F.conj [ F.atom (A.le (v 1) (c 2)); F.atom (A.eq (v 0) (c 0)) ] ])
  in
  let cubes = F.dnf f in
  (* DNF must agree with the original formula on a grid. *)
  for a = -2 to 2 do
    for b = 0 to 4 do
      let assign x = Q.of_int (if x = 0 then a else b) in
      let original = F.eval assign f in
      let via_dnf = List.exists (fun cube -> List.for_all (A.holds assign) cube) cubes in
      Alcotest.(check bool) (Printf.sprintf "dnf at (%d,%d)" a b) original via_dnf
    done
  done

(* ------------------------------------------------------------------ *)
(* SAT.                                                                 *)

let test_sat_basic () =
  Alcotest.(check bool) "unit" true (match Smt.Sat.solve [ [ 1 ] ] with Smt.Sat.Sat f -> f 1 | _ -> false);
  Alcotest.(check bool) "conflict" true (Smt.Sat.solve [ [ 1 ]; [ -1 ] ] = Smt.Sat.Unsat);
  Alcotest.(check bool) "empty clause" true (Smt.Sat.solve [ [] ] = Smt.Sat.Unsat);
  Alcotest.(check bool) "no clauses" true (match Smt.Sat.solve [] with Smt.Sat.Sat _ -> true | _ -> false)

let test_sat_pigeonhole () =
  (* 3 pigeons, 2 holes: unsat.  Var (p,h) = p*2 + h + 1. *)
  let var p h = (p * 2) + h + 1 in
  let at_least = List.init 3 (fun p -> [ var p 0; var p 1 ]) in
  let at_most =
    List.concat_map
      (fun h ->
        [ [ -var 0 h; -var 1 h ]; [ -var 0 h; -var 2 h ]; [ -var 1 h; -var 2 h ] ])
      [ 0; 1 ]
  in
  Alcotest.(check bool) "php(3,2)" true (Smt.Sat.solve (at_least @ at_most) = Smt.Sat.Unsat)

let test_sat_solve_all () =
  (* x1 xor x2 has exactly two models. *)
  let clauses = [ [ 1; 2 ]; [ -1; -2 ] ] in
  let models = Smt.Sat.solve_all clauses |> List.sort_uniq compare in
  Alcotest.(check (list (list int))) "two models" [ [ 1 ]; [ 2 ] ] models

let sat_brute_force clauses nvars =
  let rec go assignment v =
    if v > nvars then
      List.for_all (List.exists (fun l -> List.mem l assignment)) clauses
    else go (v :: assignment) (v + 1) || go (-v :: assignment) (v + 1)
  in
  go [] 1

let arb_cnf =
  let lit = QCheck.map (fun (v, s) -> if s then v else -v) QCheck.(pair (int_range 1 4) bool) in
  QCheck.(list_of_size (Gen.int_range 1 8) (list_of_size (Gen.int_range 1 3) lit))

let sat_props =
  [
    prop "dpll agrees with brute force" 300 arb_cnf (fun clauses ->
        let expected = sat_brute_force clauses 4 in
        match Smt.Sat.solve clauses with
        | Smt.Sat.Sat assign ->
          expected
          && List.for_all (List.exists (fun l -> if l > 0 then assign l else not (assign (-l)))) clauses
        | Smt.Sat.Unsat -> not expected);
  ]

(* ------------------------------------------------------------------ *)
(* DPLL(T) solver.                                                      *)

let test_solver_combined () =
  (* (x >= 3 \/ x <= -3) /\ x >= 0 /\ x <= 10: model must have x >= 3. *)
  let f =
    F.conj
      [ F.disj [ F.atom (A.ge (v 0) (c 3)); F.atom (A.le (v 0) (c (-3))) ];
        F.atom (A.ge (v 0) (c 0)); F.atom (A.le (v 0) (c 10)) ]
  in
  (match Smt.Solver.solve f with
   | Smt.Solver.Sat model ->
     let x = List.assoc 0 model in
     Alcotest.(check bool) "x >= 3" true (B.compare x (B.of_int 3) >= 0)
   | _ -> Alcotest.fail "expected sat");
  (* x = 0 /\ (x >= 1 \/ x <= -1): unsat *)
  let g =
    F.conj
      [ F.atom (A.eq (v 0) (c 0));
        F.disj [ F.atom (A.ge (v 0) (c 1)); F.atom (A.le (v 0) (c (-1))) ] ]
  in
  Alcotest.(check bool) "unsat" true (Smt.Solver.solve g = Smt.Solver.Unsat)

let test_solver_negated_eq () =
  (* not (x = 0) /\ 0 <= x <= 1 forces x = 1. *)
  let f =
    F.conj
      [ F.not_ (F.atom (A.eq (v 0) (c 0)));
        F.atom (A.ge (v 0) (c 0)); F.atom (A.le (v 0) (c 1)) ]
  in
  match Smt.Solver.solve f with
  | Smt.Solver.Sat model ->
    Alcotest.(check string) "x = 1" "1" (B.to_string (List.assoc 0 model))
  | _ -> Alcotest.fail "expected sat"

let solver_props =
  [
    prop "solver agrees with brute force on conj/disj" 150
      QCheck.(pair (list_of_size (Gen.int_range 1 3) arb_atom) (list_of_size (Gen.int_range 1 3) arb_atom))
      (fun (cube1, cube2) ->
        let f =
          F.conj
            (F.disj
               [ F.conj (List.map F.atom cube1); F.conj (List.map F.atom cube2) ]
            :: List.map F.atom box_atoms)
        in
        let expected = brute_force_sat (cube1 @ box_atoms) || brute_force_sat (cube2 @ box_atoms) in
        match Smt.Solver.solve f with
        | Smt.Solver.Sat model ->
          let assign x =
            match List.assoc_opt x model with Some b -> Q.of_bigint b | None -> Q.zero
          in
          expected && F.eval assign f
        | Smt.Solver.Unsat -> not expected
        | Smt.Solver.Unknown -> false);
  ]

let () =
  Alcotest.run "smt"
    [
      ( "linexpr",
        [
          Alcotest.test_case "basics" `Quick test_linexpr_basics;
          Alcotest.test_case "eval" `Quick test_linexpr_eval;
          Alcotest.test_case "scale_to_integers" `Quick test_linexpr_scale_to_integers;
          Alcotest.test_case "subst" `Quick test_linexpr_subst;
        ] );
      ( "simplex",
        [
          Alcotest.test_case "feasible" `Quick test_simplex_feasible;
          Alcotest.test_case "infeasible" `Quick test_simplex_infeasible;
          Alcotest.test_case "strict bounds" `Quick test_simplex_strict;
          Alcotest.test_case "equalities" `Quick test_simplex_equalities;
          Alcotest.test_case "pivoting required" `Quick test_simplex_needs_pivot;
          Alcotest.test_case "degenerate bounds" `Quick test_simplex_degenerate;
          Alcotest.test_case "trivial atoms" `Quick test_simplex_trivial_atoms;
        ] );
      ( "lia",
        [
          Alcotest.test_case "integrality gaps" `Quick test_lia_gap;
          Alcotest.test_case "feasible systems" `Quick test_lia_feasible;
          Alcotest.test_case "rational coefficients" `Quick test_lia_rational_coeffs;
          Alcotest.test_case "resilience-shaped query" `Quick test_lia_resilience_shape;
          Alcotest.test_case "budget exhaustion is Unknown" `Quick test_lia_budget_unknown;
          Alcotest.test_case "delta-rational witnesses" `Quick test_simplex_delta_exposed;
        ] );
      ("smt-props", smt_props);
      ( "lia-front-end",
        [
          Alcotest.test_case "overflow takes the rational fallback" `Quick
            test_lia_front_end_overflow;
          Alcotest.test_case "checker query shapes" `Quick test_lia_front_end_schema_queries;
        ] );
      ("lia-front-end-props", front_end_props);
      ( "atom-canonical",
        [ Alcotest.test_case "gcd equality and hash" `Quick test_atom_canonical_equal ] );
      ("qcache-fingerprint", qcache_props);
      ( "lia-session",
        [
          Alcotest.test_case "push/pop assertion stack" `Quick test_lia_session_push_pop;
          Alcotest.test_case "prefix model cache" `Quick test_lia_session_model_cache;
          Alcotest.test_case "interval propagation / check_quick" `Quick
            test_lia_session_check_quick;
        ] );
      ("lia-session-props", session_props);
      ( "formula",
        [
          Alcotest.test_case "smart constructors" `Quick test_formula_smart_constructors;
          Alcotest.test_case "eval" `Quick test_formula_eval;
          Alcotest.test_case "dnf equivalence" `Quick test_dnf_equivalence;
        ] );
      ( "sat",
        [
          Alcotest.test_case "basics" `Quick test_sat_basic;
          Alcotest.test_case "pigeonhole" `Quick test_sat_pigeonhole;
          Alcotest.test_case "solve_all" `Quick test_sat_solve_all;
        ] );
      ("sat-props", sat_props);
      ( "solver",
        [
          Alcotest.test_case "combined theory+bool" `Quick test_solver_combined;
          Alcotest.test_case "negated equality" `Quick test_solver_negated_eq;
        ] );
      ("solver-props", solver_props);
    ]
