module Q = Numbers.Rational
module B = Numbers.Bigint
module IntMap = Map.Make (Int)

(* [hash] caches the structural hash: -1 = not yet computed.  Every
   construction goes through [mk] so a stale cache can never be copied
   into a fresh expression (no [{ e with _ }] updates below).  The cache
   makes the hash O(1) after first use, which the incremental engine's
   assertion-dedup tables rely on. *)
type t = { coeffs : Q.t IntMap.t; const : Q.t; mutable hash : int }

let mk coeffs const = { coeffs; const; hash = -1 }

let zero = mk IntMap.empty Q.zero
let const k = mk IntMap.empty k
let of_int n = const (Q.of_int n)

let term c x =
  if Q.is_zero c then zero else mk (IntMap.singleton x c) Q.zero

let var x = term Q.one x

let add_term c x e =
  let update = function
    | None -> if Q.is_zero c then None else Some c
    | Some c0 ->
      let c' = Q.add c0 c in
      if Q.is_zero c' then None else Some c'
  in
  mk (IntMap.update x update e.coeffs) e.const

let add_const k e = mk e.coeffs (Q.add e.const k)

let of_terms terms k =
  List.fold_left (fun e (c, x) -> add_term c x e) (const k) terms

let of_int_terms terms k =
  of_terms (List.map (fun (c, x) -> (Q.of_int c, x)) terms) (Q.of_int k)

let add a b =
  let coeffs =
    IntMap.union
      (fun _ c1 c2 ->
        let c = Q.add c1 c2 in
        if Q.is_zero c then None else Some c)
      a.coeffs b.coeffs
  in
  mk coeffs (Q.add a.const b.const)

let scale q e =
  if Q.is_zero q then zero
  else mk (IntMap.map (Q.mul q) e.coeffs) (Q.mul q e.const)

let neg e = scale Q.minus_one e
let sub a b = add a (neg b)

let coeff x e = match IntMap.find_opt x e.coeffs with Some c -> c | None -> Q.zero
let constant e = e.const
let terms e = IntMap.fold (fun x c acc -> (c, x) :: acc) e.coeffs [] |> List.rev
let vars e = IntMap.fold (fun x _ acc -> x :: acc) e.coeffs [] |> List.rev
let is_const e = IntMap.is_empty e.coeffs

let eval assign e =
  IntMap.fold (fun x c acc -> Q.add acc (Q.mul c (assign x))) e.coeffs e.const

let eval_delta assign e =
  IntMap.fold
    (fun x c acc -> Delta.add acc (Delta.scale c (assign x)))
    e.coeffs
    (Delta.of_rational e.const)

let scale_to_integers e =
  let l = IntMap.fold (fun _ c acc -> B.lcm acc (Q.den c)) e.coeffs (Q.den e.const) in
  if B.is_one l then e else scale (Q.of_bigint l) e

let compare a b =
  if a == b then 0
  else begin
    let c = Q.compare a.const b.const in
    if c <> 0 then c else IntMap.compare Q.compare a.coeffs b.coeffs
  end

let equal a b = a == b || compare a b = 0

let hash_q q = (B.hash (Q.num q) * 31) + B.hash (Q.den q)

let hash e =
  if e.hash >= 0 then e.hash
  else begin
    let h =
      IntMap.fold
        (fun x c acc -> (acc * 131) + (x * 31) + hash_q c)
        e.coeffs (hash_q e.const)
      land max_int
    in
    e.hash <- h;
    h
  end

let to_string ?(names = fun i -> "x" ^ string_of_int i) e =
  let buf = Buffer.create 32 in
  let first = ref true in
  let add_part sgn body =
    if !first then begin
      if sgn < 0 then Buffer.add_char buf '-';
      first := false
    end
    else Buffer.add_string buf (if sgn < 0 then " - " else " + ");
    Buffer.add_string buf body
  in
  IntMap.iter
    (fun x c ->
      let a = Q.abs c in
      let body =
        if Q.equal a Q.one then names x else Q.to_string a ^ "*" ^ names x
      in
      add_part (Q.sign c) body)
    e.coeffs;
  if not (Q.is_zero e.const) || !first then
    add_part (Q.sign e.const) (Q.to_string (Q.abs e.const));
  Buffer.contents buf

let pp ?names fmt e = Format.pp_print_string fmt (to_string ?names e)

let map_vars f e =
  mk
    (IntMap.fold (fun x c acc -> IntMap.add (f x) c acc) e.coeffs IntMap.empty)
    e.const

let subst x by e =
  match IntMap.find_opt x e.coeffs with
  | None -> e
  | Some c -> add (mk (IntMap.remove x e.coeffs) e.const) (scale c by)
