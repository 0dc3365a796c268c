(* [Smt.Lia.solve] as it stood before its front end moved to native
   integers, frozen as the reference: every atom normalized and
   GCD-tightened as a [Linexpr] of rationals, then equalities with a
   +-1 coefficient eliminated one at a time by substituting into every
   atom and re-tightening the whole list, then the same
   branch-and-bound over [Smt.Simplex.solve].  The library must return
   the same result, the same model and the same step count on every
   input. *)

module B = Numbers.Bigint
module Q = Numbers.Rational
module Atom = Smt.Atom
module Linexpr = Smt.Linexpr
module Simplex = Smt.Simplex

exception Budget
exception Infeasible

let normalize (a : Atom.t) : Atom.t =
  let expr = Linexpr.scale_to_integers a.expr in
  match a.rel with
  | Atom.Lt -> { Atom.expr = Linexpr.add_const Q.one expr; rel = Atom.Le }
  | Atom.Le | Atom.Eq -> { a with expr }

let tighten (a : Atom.t) : Atom.t =
  let coeffs = Linexpr.terms a.expr in
  if coeffs = [] then a
  else begin
    let g =
      List.fold_left (fun acc (c, _) -> B.gcd acc (Q.to_bigint c)) B.zero coeffs
    in
    if B.equal g B.one then a
    else begin
      let k = Q.to_bigint (Linexpr.constant a.expr) in
      match a.rel with
      | Atom.Eq ->
        if not (B.is_zero (B.rem k g)) then raise Infeasible;
        { a with expr = Linexpr.scale (Q.make B.one g) a.expr }
      | Atom.Le ->
        let terms = List.map (fun (c, v) -> (Q.make (Q.to_bigint c) g, v)) coeffs in
        { a with expr = Linexpr.of_terms terms (Q.of_bigint (B.cdiv k g)) }
      | Atom.Lt -> assert false
    end
  end

let solvable_equality (a : Atom.t) =
  match a.rel with
  | Atom.Le | Atom.Lt -> None
  | Atom.Eq ->
    let rec pick = function
      | [] -> None
      | (c, x) :: rest ->
        if Q.equal (Q.abs c) Q.one then begin
          let rest_expr = Linexpr.add_term (Q.neg c) x a.expr in
          Some (x, Linexpr.scale (Q.neg (Q.inv c)) rest_expr)
        end
        else pick rest
    in
    pick (Linexpr.terms a.expr)

let preprocess atoms =
  let simplify atoms =
    List.filter_map
      (fun a ->
        let a = tighten a in
        match Atom.trivial a with
        | Some true -> None
        | Some false -> raise Infeasible
        | None -> Some a)
      atoms
  in
  let rec eliminate atoms bindings =
    let atoms = simplify atoms in
    match List.find_map solvable_equality atoms with
    | None -> (atoms, List.rev bindings)
    | Some (x, e) ->
      let atoms =
        List.map (fun (a : Atom.t) -> { a with expr = Linexpr.subst x e a.expr }) atoms
      in
      eliminate atoms ((x, e) :: bindings)
  in
  eliminate atoms []

let fractional q = not (Q.is_integer q)

let solve ?steps ?(max_steps = 20_000) atoms =
  let budget = ref max_steps in
  let finish result =
    (match steps with Some r -> r := !r + (max_steps - !budget) | None -> ());
    result
  in
  match
    let atoms = List.map normalize atoms in
    let all_vars = List.concat_map Atom.vars atoms |> List.sort_uniq compare in
    let reduced, bindings = preprocess atoms in
    let rec branch atoms depth =
      if !budget <= 0 || depth > 600 then raise Budget;
      decr budget;
      match Simplex.solve atoms with
      | Simplex.Unsat -> None
      | Simplex.Unknown -> raise Budget
      | Simplex.Sat model -> (
        match List.find_opt (fun (_, q) -> fractional q) model with
        | None -> Some model
        | Some (v, q) ->
          let f = Q.floor q in
          let low =
            { Atom.expr = Linexpr.sub (Linexpr.var v) (Linexpr.const (Q.of_bigint f));
              rel = Atom.Le }
          in
          let high =
            { Atom.expr =
                Linexpr.sub (Linexpr.const (Q.of_bigint (B.succ f))) (Linexpr.var v);
              rel = Atom.Le }
          in
          (match branch (low :: atoms) (depth + 1) with
           | Some m -> Some m
           | None -> branch (high :: atoms) (depth + 1)))
    in
    match branch reduced 0 with
    | None -> Smt.Lia.Unsat
    | Some model ->
      let value = Hashtbl.create 16 in
      List.iter (fun (v, q) -> Hashtbl.replace value v q) model;
      let lookup v = match Hashtbl.find_opt value v with Some q -> q | None -> Q.zero in
      List.iter
        (fun (x, e) -> Hashtbl.replace value x (Linexpr.eval lookup e))
        (List.rev bindings);
      Smt.Lia.Sat (List.map (fun v -> (v, Q.to_bigint (lookup v))) all_vars)
  with
  | result -> finish result
  | exception Infeasible -> finish Smt.Lia.Unsat
  | exception Budget -> finish Smt.Lia.Unknown
