module B = Numbers.Bigint
module SMap = Map.Make (String)

module Term = struct
  type t = { coeffs : B.t SMap.t; const : B.t }

  let normalize coeffs = SMap.filter (fun _ c -> not (B.is_zero c)) coeffs

  let const k = { coeffs = SMap.empty; const = B.of_int k }
  let var x = { coeffs = SMap.singleton x B.one; const = B.zero }

  let of_terms terms k =
    let coeffs =
      List.fold_left
        (fun acc (c, x) ->
          SMap.update x
            (function None -> Some (B.of_int c) | Some c0 -> Some (B.add c0 (B.of_int c)))
            acc)
        SMap.empty terms
    in
    { coeffs = normalize coeffs; const = B.of_int k }

  let add a b =
    {
      coeffs =
        normalize
          (SMap.union (fun _ c1 c2 -> Some (B.add c1 c2)) a.coeffs b.coeffs);
      const = B.add a.const b.const;
    }

  let scale k a =
    if B.is_zero k then { coeffs = SMap.empty; const = B.zero }
    else { coeffs = SMap.map (B.mul k) a.coeffs; const = B.mul k a.const }

  let neg = scale B.minus_one
  let sub a b = add a (neg b)

  let coeff x a = match SMap.find_opt x a.coeffs with Some c -> c | None -> B.zero

  let eval env a =
    SMap.fold (fun x c acc -> B.add acc (B.mul c (env x))) a.coeffs a.const

  (* [subst x s a] replaces x by term s. *)
  let subst x s a =
    let c = coeff x a in
    if B.is_zero c then a
    else add { a with coeffs = SMap.remove x a.coeffs } (scale c s)

  let vars a = SMap.fold (fun x _ acc -> x :: acc) a.coeffs []

  let to_string a =
    let buf = Buffer.create 32 in
    let first = ref true in
    let part sgn body =
      if !first then begin
        if sgn < 0 then Buffer.add_char buf '-';
        first := false
      end
      else Buffer.add_string buf (if sgn < 0 then " - " else " + ");
      Buffer.add_string buf body
    in
    SMap.iter
      (fun x c ->
        let a = B.abs c in
        part (B.sign c) (if B.equal a B.one then x else B.to_string a ^ "*" ^ x))
      a.coeffs;
    if (not (B.is_zero a.const)) || !first then
      part (B.sign a.const) (B.to_string (B.abs a.const));
    Buffer.contents buf
end

type t =
  | Lt of Term.t
  | Eq of Term.t
  | Divides of B.t * Term.t
  | Not of t
  | And of t list
  | Or of t list
  | Exists of string * t
  | Forall of string * t

let tt = And []
let ff = Or []

let lt a b = Lt (Term.sub a b)

(* Over Z, a <= b iff a - b - 1 < 0. *)
let le a b = Lt (Term.sub (Term.sub a b) (Term.const 1))
let ge a b = le b a
let gt a b = lt b a
let eq a b = Eq (Term.sub a b)

let rec free_vars = function
  | Lt t | Eq t | Divides (_, t) -> Term.vars t
  | Not f -> free_vars f
  | And fs | Or fs -> List.concat_map free_vars fs
  | Exists (x, f) | Forall (x, f) -> List.filter (( <> ) x) (free_vars f)

let free_vars f = List.sort_uniq compare (free_vars f)

let rec eval env = function
  | Lt t -> B.sign (Term.eval env t) < 0
  | Eq t -> B.is_zero (Term.eval env t)
  | Divides (d, t) -> B.is_zero (B.rem (Term.eval env t) d)
  | Not f -> not (eval env f)
  | And fs -> List.for_all (eval env) fs
  | Or fs -> List.exists (eval env) fs
  | Exists _ | Forall _ -> invalid_arg "Presburger.eval: quantifier"

(* --------------------------------------------------------------- *)
(* Simplification: constant folding and flattening.                  *)

let is_const_term (t : Term.t) = Term.vars t = []

let rec simplify = function
  | Lt t as f -> if is_const_term t then if B.sign (Term.eval (fun _ -> B.zero) t) < 0 then tt else ff else f
  | Eq t as f -> if is_const_term t then if B.is_zero (Term.eval (fun _ -> B.zero) t) then tt else ff else f
  | Divides (d, t) as f ->
    if B.equal (B.abs d) B.one then tt
    else if is_const_term t then
      if B.is_zero (B.rem (Term.eval (fun _ -> B.zero) t) d) then tt else ff
    else f
  | Not f -> (
    match simplify f with
    | And [] -> ff
    | Or [] -> tt
    | Not g -> g
    | g -> Not g)
  | And fs ->
    let fs = List.map simplify fs in
    if List.exists (( = ) ff) fs then ff
    else begin
      let fs = List.concat_map (function And gs -> gs | g -> [ g ]) fs in
      let fs = List.filter (( <> ) tt) fs in
      match fs with [ f ] -> f | fs -> And fs
    end
  | Or fs ->
    let fs = List.map simplify fs in
    if List.exists (( = ) tt) fs then tt
    else begin
      let fs = List.concat_map (function Or gs -> gs | g -> [ g ]) fs in
      let fs = List.filter (( <> ) ff) fs in
      match fs with [ f ] -> f | fs -> Or fs
    end
  | Exists (x, f) -> Exists (x, simplify f)
  | Forall (x, f) -> Forall (x, simplify f)

(* --------------------------------------------------------------- *)
(* NNF over quantifier-free formulas; negated divisibilities stay as
   [Not (Divides ...)] leaves, which Cooper's construction tolerates. *)

let rec nnf = function
  | (Lt _ | Eq _ | Divides _) as a -> a
  | And fs -> And (List.map nnf fs)
  | Or fs -> Or (List.map nnf fs)
  | Not f -> nnf_neg f
  | Exists _ | Forall _ -> invalid_arg "Presburger.nnf: quantifier"

and nnf_neg = function
  | Lt t -> Lt (Term.sub (Term.neg t) (Term.const 1)) (* not (t<0) <=> -t-1 < 0 *)
  | Eq t -> Or [ Lt t; Lt (Term.neg t) ]
  | Divides _ as a -> Not a
  | Not f -> nnf f
  | And fs -> Or (List.map nnf_neg fs)
  | Or fs -> And (List.map nnf_neg fs)
  | Exists _ | Forall _ -> invalid_arg "Presburger.nnf: quantifier"

(* Rewrite equalities that mention x into conjunctions of strict
   inequalities so only Lt and (Not)Divides atoms mention x. *)
let rec split_eq x = function
  | Eq t when not (B.is_zero (Term.coeff x t)) ->
    And [ Lt (Term.sub t (Term.const 1)); Lt (Term.sub (Term.neg t) (Term.const 1)) ]
  | (Lt _ | Eq _ | Divides _ | Not _) as a -> a
  | And fs -> And (List.map (split_eq x) fs)
  | Or fs -> Or (List.map (split_eq x) fs)
  | Exists _ | Forall _ -> assert false

(* Map over atoms that mention x. *)
let rec map_atoms fn = function
  | (Lt _ | Eq _ | Divides _ | Not (Divides _)) as a -> fn a
  | Not _ as a -> a
  | And fs -> And (List.map (map_atoms fn) fs)
  | Or fs -> Or (List.map (map_atoms fn) fs)
  | Exists _ | Forall _ -> assert false

let rec fold_atoms fn acc = function
  | (Lt _ | Eq _ | Divides _ | Not (Divides _)) as a -> fn acc a
  | Not _ -> acc
  | And fs | Or fs -> List.fold_left (fold_atoms fn) acc fs
  | Exists _ | Forall _ -> assert false

let atom_term = function
  | Lt t | Eq t | Divides (_, t) | Not (Divides (_, t)) -> t
  | _ -> invalid_arg "atom_term"

(* Cooper's elimination of one existential over a quantifier-free NNF
   formula. *)
let eliminate_exists x f =
  let f = split_eq x (nnf f) in
  let coeffs =
    fold_atoms
      (fun acc a ->
        let c = Term.coeff x (atom_term a) in
        if B.is_zero c then acc else B.abs c :: acc)
      [] f
  in
  if coeffs = [] then f
  else begin
    let lambda = List.fold_left B.lcm B.one coeffs in
    (* Normalize x's coefficient to +-lambda, then read lambda*x as a
       fresh unit variable (we reuse the name x). *)
    let normalized =
      map_atoms
        (fun a ->
          let t = atom_term a in
          let c = Term.coeff x t in
          if B.is_zero c then a
          else begin
            let m = B.div lambda (B.abs c) in
            let scaled = Term.scale m t in
            (* Replace the coefficient lambda (or -lambda) of x by +-1. *)
            let sign = B.of_int (B.sign c) in
            let unit_t =
              Term.add
                (Term.subst x (Term.const 0) scaled)
                (Term.scale sign (Term.var x))
            in
            match a with
            | Lt _ -> Lt unit_t
            | Divides (d, _) -> Divides (B.mul m d, unit_t)
            | Not (Divides (d, _)) -> Not (Divides (B.mul m d, unit_t))
            | Eq _ -> Eq unit_t
            | _ -> assert false
          end)
        f
    in
    let f = And [ normalized; Divides (lambda, Term.var x) ] in
    let delta =
      fold_atoms
        (fun acc a ->
          match a with
          | Divides (d, t) | Not (Divides (d, t)) ->
            if B.is_zero (Term.coeff x t) then acc else B.lcm acc d
          | _ -> acc)
        B.one f
    in
    (* Lower-bound terms b with atom  -x + b < 0  (i.e. x > b). *)
    let lower_bounds =
      fold_atoms
        (fun acc a ->
          match a with
          | Lt t when B.equal (Term.coeff x t) B.minus_one ->
            Term.subst x (Term.const 0) t :: acc
          | _ -> acc)
        [] f
    in
    let subst_x s =
      map_atoms
        (fun a ->
          let t = atom_term a in
          let t' = Term.subst x s t in
          match a with
          | Lt _ -> Lt t'
          | Eq _ -> Eq t'
          | Divides (d, _) -> Divides (d, t')
          | Not (Divides (d, _)) -> Not (Divides (d, t'))
          | _ -> assert false)
        f
    in
    (* phi_-inf: x arbitrarily small — upper-bound atoms become true,
       lower-bound atoms false. *)
    let minus_inf =
      map_atoms
        (fun a ->
          match a with
          | Lt t when B.equal (Term.coeff x t) B.one -> tt
          | Lt t when B.equal (Term.coeff x t) B.minus_one -> ff
          | a -> a)
        f
    in
    let subst_minus_inf j =
      (* In phi_-inf only divisibility atoms mention x. *)
      map_atoms
        (fun a ->
          match a with
          | Divides (d, t) -> Divides (d, Term.subst x (Term.const j) t)
          | Not (Divides (d, t)) -> Not (Divides (d, Term.subst x (Term.const j) t))
          | a -> a)
        minus_inf
    in
    let delta_int = B.to_int_exn delta in
    let js = List.init delta_int (fun j -> j + 1) in
    let part1 = List.map (fun j -> subst_minus_inf j) js in
    let part2 =
      List.concat_map
        (fun j ->
          List.map (fun b -> subst_x (Term.add b (Term.const j))) lower_bounds)
        js
    in
    simplify (Or (part1 @ part2))
  end

let rec eliminate = function
  | (Lt _ | Eq _ | Divides _) as a -> a
  | Not f -> simplify (Not (eliminate f))
  | And fs -> simplify (And (List.map eliminate fs))
  | Or fs -> simplify (Or (List.map eliminate fs))
  | Exists (x, f) -> simplify (eliminate_exists x (eliminate f))
  | Forall (x, f) ->
    simplify (Not (eliminate_exists x (simplify (Not (eliminate f)))))

let is_valid f =
  let qf = eliminate f in
  match free_vars qf with
  | [] -> eval (fun _ -> B.zero) qf
  | vs ->
    invalid_arg
      ("Presburger.is_valid: free variables remain: " ^ String.concat ", " vs)

let rec to_string = function
  | Lt t -> Term.to_string t ^ " < 0"
  | Eq t -> Term.to_string t ^ " = 0"
  | Divides (d, t) -> B.to_string d ^ " | " ^ Term.to_string t
  | Not f -> "!(" ^ to_string f ^ ")"
  | And [] -> "true"
  | And fs -> "(" ^ String.concat " /\\ " (List.map to_string fs) ^ ")"
  | Or [] -> "false"
  | Or fs -> "(" ^ String.concat " \\/ " (List.map to_string fs) ^ ")"
  | Exists (x, f) -> "exists " ^ x ^ ". " ^ to_string f
  | Forall (x, f) -> "forall " ^ x ^ ". " ^ to_string f
