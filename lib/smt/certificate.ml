module Q = Numbers.Rational
module B = Numbers.Bigint
module J = Jsonc

type reason = Input of int | Cut of int

type premise = { coeff : Q.t; atom : Atom.t; reason : reason }

type t =
  | Farkas of premise list
  | Div_conflict of { index : int; atom : Atom.t }
  | Branch of { var : int; pivot : B.t; low : t; high : t }
  | Split of { cubes : Atom.t list list; certs : t list }
  | Static of t

let rec size = function
  | Farkas _ | Div_conflict _ -> 1
  | Branch { low; high; _ } -> size low + size high
  | Split { certs; _ } -> List.fold_left (fun acc c -> acc + size c) 0 certs
  | Static c -> size c

let core cert =
  let rec go acc = function
    | Farkas ps ->
      List.fold_left
        (fun acc p -> match p.reason with Input i -> i :: acc | Cut _ -> acc)
        acc ps
    | Div_conflict { index; _ } -> index :: acc
    | Branch { low; high; _ } -> go (go acc low) high
    | Split { certs; _ } -> List.fold_left go acc certs
    | Static c -> go acc c
  in
  List.sort_uniq compare (go [] cert)

let restrict cert =
  let core = core cert in
  let rank = Hashtbl.create 16 in
  List.iteri (fun r i -> Hashtbl.replace rank i r) core;
  let renumber i = Hashtbl.find rank i in
  let rec go = function
    | Farkas ps ->
      Farkas
        (List.map
           (fun p ->
             match p.reason with
             | Input i -> { p with reason = Input (renumber i) }
             | Cut _ -> p)
           ps)
    | Div_conflict { index; atom } -> Div_conflict { index = renumber index; atom }
    | Branch b -> Branch { b with low = go b.low; high = go b.high }
    | Split _ -> invalid_arg "Certificate.restrict: Split node"
    | Static c -> Static (go c)
  in
  (core, go cert)

let pp_reason fmt = function
  | Input i -> Format.fprintf fmt "input %d" i
  | Cut d -> Format.fprintf fmt "cut %d" d

let pp_atom fmt a = Atom.pp fmt a

let rec pp fmt = function
  | Farkas ps ->
    Format.fprintf fmt "@[<v 2>farkas";
    List.iter
      (fun p ->
        Format.fprintf fmt "@,%s * (%a)  [%a]" (Q.to_string p.coeff) pp_atom p.atom
          pp_reason p.reason)
      ps;
    Format.fprintf fmt "@]"
  | Div_conflict { index; atom } ->
    Format.fprintf fmt "div-conflict input %d: %a" index pp_atom atom
  | Branch { var; pivot; low; high } ->
    Format.fprintf fmt "@[<v 2>branch x%d on %s@,low: %a@,high: %a@]" var
      (B.to_string pivot) pp low pp high
  | Split { cubes; certs } ->
    Format.fprintf fmt "@[<v 2>split (%d cases)" (List.length cubes);
    List.iter (fun c -> Format.fprintf fmt "@,case: %a" pp c) certs;
    Format.fprintf fmt "@]"
  | Static c -> Format.fprintf fmt "@[<v 2>static@,%a@]" pp c

(* ------------------------------------------------------------------ *)
(* JSON codec.  Rationals render as "num/den", big integers as decimal
   strings; both parse back exactly. *)

let q_to_json q = J.Str (B.to_string (Q.num q) ^ "/" ^ B.to_string (Q.den q))

let q_of_json j =
  let s = J.to_str j in
  match String.index_opt s '/' with
  | None -> Q.of_bigint (B.of_string s)
  | Some i ->
    Q.make
      (B.of_string (String.sub s 0 i))
      (B.of_string (String.sub s (i + 1) (String.length s - i - 1)))

let b_to_json b = J.Str (B.to_string b)
let b_of_json j = B.of_string (J.to_str j)

let rel_to_string = function Atom.Le -> "le" | Atom.Lt -> "lt" | Atom.Eq -> "eq"

let rel_of_string = function
  | "le" -> Atom.Le
  | "lt" -> Atom.Lt
  | "eq" -> Atom.Eq
  | s -> raise (J.Parse_error ("unknown relation " ^ s))

let atom_to_json (a : Atom.t) =
  J.Obj
    [
      ("rel", J.Str (rel_to_string a.rel));
      ("terms",
       J.List
         (List.map
            (fun (c, v) -> J.List [ q_to_json c; J.Int v ])
            (Linexpr.terms a.expr)));
      ("k", q_to_json (Linexpr.constant a.expr));
    ]

let atom_of_json j =
  let rel = rel_of_string (J.to_str (J.member "rel" j)) in
  let terms =
    List.map
      (fun t ->
        match J.to_list t with
        | [ c; v ] -> (q_of_json c, J.to_int v)
        | _ -> raise (J.Parse_error "malformed term"))
      (J.to_list (J.member "terms" j))
  in
  { Atom.expr = Linexpr.of_terms terms (q_of_json (J.member "k" j)); rel }

let reason_to_json = function
  | Input i -> J.List [ J.Str "input"; J.Int i ]
  | Cut d -> J.List [ J.Str "cut"; J.Int d ]

let reason_of_json j =
  match J.to_list j with
  | [ J.Str "input"; i ] -> Input (J.to_int i)
  | [ J.Str "cut"; d ] -> Cut (J.to_int d)
  | _ -> raise (J.Parse_error "malformed premise reason")

let rec to_json = function
  | Farkas ps ->
    J.Obj
      [
        ("farkas",
         J.List
           (List.map
              (fun p ->
                J.Obj
                  [
                    ("c", q_to_json p.coeff);
                    ("atom", atom_to_json p.atom);
                    ("reason", reason_to_json p.reason);
                  ])
              ps));
      ]
  | Div_conflict { index; atom } ->
    J.Obj [ ("div", J.Obj [ ("index", J.Int index); ("atom", atom_to_json atom) ]) ]
  | Branch { var; pivot; low; high } ->
    J.Obj
      [
        ("branch",
         J.Obj
           [
             ("var", J.Int var);
             ("pivot", b_to_json pivot);
             ("low", to_json low);
             ("high", to_json high);
           ]);
      ]
  | Split { cubes; certs } ->
    J.Obj
      [
        ("split",
         J.Obj
           [
             ("cubes",
              J.List
                (List.map (fun cube -> J.List (List.map atom_to_json cube)) cubes));
             ("certs", J.List (List.map to_json certs));
           ]);
      ]
  | Static c -> J.Obj [ ("static", to_json c) ]

let rec of_json j =
  match J.member_opt "farkas" j with
  | Some ps ->
    Farkas
      (List.map
         (fun p ->
           {
             coeff = q_of_json (J.member "c" p);
             atom = atom_of_json (J.member "atom" p);
             reason = reason_of_json (J.member "reason" p);
           })
         (J.to_list ps))
  | None -> (
    match J.member_opt "div" j with
    | Some d ->
      Div_conflict
        {
          index = J.to_int (J.member "index" d);
          atom = atom_of_json (J.member "atom" d);
        }
    | None -> (
      match J.member_opt "branch" j with
      | Some b ->
        Branch
          {
            var = J.to_int (J.member "var" b);
            pivot = b_of_json (J.member "pivot" b);
            low = of_json (J.member "low" b);
            high = of_json (J.member "high" b);
          }
      | None -> (
        match J.member_opt "split" j with
        | Some s ->
          Split
            {
              cubes =
                List.map
                  (fun cube -> List.map atom_of_json (J.to_list cube))
                  (J.to_list (J.member "cubes" s));
              certs = List.map of_json (J.to_list (J.member "certs" s));
            }
        | None -> (
          match J.member_opt "static" j with
          | Some c -> Static (of_json c)
          | None -> raise (J.Parse_error "unknown certificate node")))))
