(* The one-shot simplex as it stood before the tableau rows became
   in-place sparse arrays, frozen as the reference for
   [Smt.Simplex.solve_delta]: each row an immutable [IntMap] keyed by
   column, rebuilt on every pivot; Bland's rule takes the first eligible
   key in [IntMap] order.  The library's tableau must reach the same
   verdict and the same delta model on every input. *)

module Q = Numbers.Rational
module IntMap = Map.Make (Int)
module Atom = Smt.Atom
module Delta = Smt.Delta
module Linexpr = Smt.Linexpr

exception Conflict

(* Internal solver state over densely numbered variables [0, nvars).
   Rows map a basic variable to its expression over nonbasic variables. *)
type state = {
  nvars : int;
  rows : (int, Q.t IntMap.t) Hashtbl.t;
  beta : Delta.t array;
  lower : Delta.t option array;
  upper : Delta.t option array;
  basic : bool array;
}

let below_lower st x =
  match st.lower.(x) with None -> false | Some l -> Delta.compare st.beta.(x) l < 0

let above_upper st x =
  match st.upper.(x) with None -> false | Some u -> Delta.compare st.beta.(x) u > 0

(* Shift a nonbasic variable to value [v], propagating to basic rows. *)
let update st x v =
  let dv = Delta.sub v st.beta.(x) in
  Hashtbl.iter
    (fun b row ->
      match IntMap.find_opt x row with
      | None -> ()
      | Some a -> st.beta.(b) <- Delta.add st.beta.(b) (Delta.scale a dv))
    st.rows;
  st.beta.(x) <- v

let assert_upper st x c =
  let tighter = match st.upper.(x) with None -> true | Some u -> Delta.compare c u < 0 in
  if tighter then begin
    (match st.lower.(x) with
     | Some l when Delta.compare c l < 0 -> raise Conflict
     | _ -> ());
    st.upper.(x) <- Some c;
    if (not st.basic.(x)) && Delta.compare st.beta.(x) c > 0 then update st x c
  end

let assert_lower st x c =
  let tighter = match st.lower.(x) with None -> true | Some l -> Delta.compare c l > 0 in
  if tighter then begin
    (match st.upper.(x) with
     | Some u when Delta.compare c u > 0 -> raise Conflict
     | _ -> ());
    st.lower.(x) <- Some c;
    if (not st.basic.(x)) && Delta.compare st.beta.(x) c < 0 then update st x c
  end

(* Pivot basic [xi] with nonbasic [xj] and set beta(xi) to [v]. *)
let pivot_and_update st xi xj v =
  let row_i = Hashtbl.find st.rows xi in
  let aij = IntMap.find xj row_i in
  let theta = Delta.scale (Q.inv aij) (Delta.sub v st.beta.(xi)) in
  st.beta.(xi) <- v;
  st.beta.(xj) <- Delta.add st.beta.(xj) theta;
  Hashtbl.iter
    (fun xk row ->
      if xk <> xi then
        match IntMap.find_opt xj row with
        | None -> ()
        | Some akj -> st.beta.(xk) <- Delta.add st.beta.(xk) (Delta.scale akj theta))
    st.rows;
  (* Derive the new row for xj:  xj = xi/aij - sum_{k<>j} (aik/aij) xk. *)
  Hashtbl.remove st.rows xi;
  let inv = Q.inv aij in
  let row_j =
    IntMap.fold
      (fun k aik acc ->
        if k = xj then acc else IntMap.add k (Q.neg (Q.mul aik inv)) acc)
      row_i
      (IntMap.singleton xi inv)
  in
  (* Substitute xj in every remaining row. *)
  let subst_row row =
    match IntMap.find_opt xj row with
    | None -> row
    | Some c ->
      let row = IntMap.remove xj row in
      IntMap.fold
        (fun k cj acc ->
          let add = Q.mul c cj in
          match IntMap.find_opt k acc with
          | None -> if Q.is_zero add then acc else IntMap.add k add acc
          | Some c0 ->
            let c' = Q.add c0 add in
            if Q.is_zero c' then IntMap.remove k acc else IntMap.add k c' acc)
        row_j row
  in
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) st.rows [] in
  List.iter (fun k -> Hashtbl.replace st.rows k (subst_row (Hashtbl.find st.rows k))) keys;
  Hashtbl.replace st.rows xj row_j;
  st.basic.(xi) <- false;
  st.basic.(xj) <- true

(* Main check loop with Bland's rule (smallest indices) for termination. *)
let check_core st =
  let rec loop () =
    let violating = ref None in
    for x = st.nvars - 1 downto 0 do
      if st.basic.(x) && (below_lower st x || above_upper st x) then violating := Some x
    done;
    match !violating with
    | None -> `Ok
    | Some xi ->
      let row = Hashtbl.find st.rows xi in
      if below_lower st xi then begin
        (* Increase xi. *)
        let xj = ref None in
        IntMap.iter
          (fun k a ->
            if !xj = None then
              let ok =
                if Q.sign a > 0 then
                  match st.upper.(k) with
                  | None -> true
                  | Some u -> Delta.compare st.beta.(k) u < 0
                else
                  match st.lower.(k) with
                  | None -> true
                  | Some l -> Delta.compare st.beta.(k) l > 0
              in
              if ok then xj := Some k)
          row;
        match !xj with
        | None -> `Conflict (xi, `Below)
        | Some xj ->
          pivot_and_update st xi xj (Option.get st.lower.(xi));
          loop ()
      end
      else begin
        (* Decrease xi. *)
        let xj = ref None in
        IntMap.iter
          (fun k a ->
            if !xj = None then
              let ok =
                if Q.sign a < 0 then
                  match st.upper.(k) with
                  | None -> true
                  | Some u -> Delta.compare st.beta.(k) u < 0
                else
                  match st.lower.(k) with
                  | None -> true
                  | Some l -> Delta.compare st.beta.(k) l > 0
              in
              if ok then xj := Some k)
          row;
        match !xj with
        | None -> `Conflict (xi, `Above)
        | Some xj ->
          pivot_and_update st xi xj (Option.get st.upper.(xi));
          loop ()
      end
  in
  loop ()

let check st = match check_core st with `Ok -> () | `Conflict _ -> raise Conflict

let solve_internal atoms =
  (* Constant atoms are decided immediately. *)
  let atoms =
    List.filter_map
      (fun a ->
        match Atom.trivial a with
        | Some true -> None
        | Some false -> raise Conflict
        | None -> Some a)
      atoms
  in
  let original_vars =
    List.concat_map Atom.vars atoms |> List.sort_uniq compare
  in
  let dense = Hashtbl.create 16 in
  List.iteri (fun i v -> Hashtbl.replace dense v i) original_vars;
  let norig = List.length original_vars in
  (* One slack variable per distinct linear part. *)
  let slack_of = Hashtbl.create 16 in
  let slack_rows = ref [] in
  let nslack = ref 0 in
  let constraints =
    List.map
      (fun (a : Atom.t) ->
        let linear =
          Linexpr.terms a.expr
          |> List.map (fun (c, v) -> (c, Hashtbl.find dense v))
        in
        let bound = Q.neg (Linexpr.constant a.expr) in
        match linear with
        | [ (c, v) ] ->
          (* Single-variable atom: bound the variable directly — no slack
             row needed.  A negative coefficient flips the bound side. *)
          (`Direct (v, Q.sign c > 0), a.rel, Q.div bound c)
        | _ ->
          let key = linear in
          let slack =
            match Hashtbl.find_opt slack_of key with
            | Some s -> s
            | None ->
              let s = norig + !nslack in
              incr nslack;
              Hashtbl.replace slack_of key s;
              slack_rows := (s, linear) :: !slack_rows;
              s
          in
          (`Slack slack, a.rel, bound))
      (List.filter (fun (a : Atom.t) -> not (Linexpr.is_const a.expr)) atoms)
  in
  let nvars = norig + !nslack in
  let st =
    {
      nvars;
      rows = Hashtbl.create 16;
      beta = Array.make nvars Delta.zero;
      lower = Array.make nvars None;
      upper = Array.make nvars None;
      basic = Array.make nvars false;
    }
  in
  List.iter
    (fun (s, linear) ->
      let row =
        List.fold_left (fun acc (c, v) -> IntMap.add v c acc) IntMap.empty linear
      in
      Hashtbl.replace st.rows s row;
      st.basic.(s) <- true)
    !slack_rows;
  List.iter
    (fun (target, rel, bound) ->
      let v, upper_side =
        match target with `Slack s -> (s, true) | `Direct (v, pos) -> (v, pos)
      in
      match ((rel : Atom.rel), upper_side) with
      | Le, true -> assert_upper st v (Delta.of_rational bound)
      | Lt, true -> assert_upper st v (Delta.make bound Q.minus_one)
      | Le, false -> assert_lower st v (Delta.of_rational bound)
      | Lt, false -> assert_lower st v (Delta.make bound Q.one)
      | Eq, _ ->
        assert_upper st v (Delta.of_rational bound);
        assert_lower st v (Delta.of_rational bound))
    constraints;
  check st;
  (original_vars, st)

let solve_delta atoms =
  match solve_internal atoms with
  | exception Conflict -> None
  | original_vars, st -> Some (List.mapi (fun i v -> (v, st.beta.(i))) original_vars)
