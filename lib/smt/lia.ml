module B = Numbers.Bigint
module Q = Numbers.Rational

type result = Sat of (int * B.t) list | Unsat | Unknown | Timeout

exception Budget
exception Infeasible

(* Normalize to integer coefficients and non-strict relations. *)
let normalize (a : Atom.t) : Atom.t =
  let expr = Linexpr.scale_to_integers a.expr in
  match a.rel with
  | Atom.Lt -> { Atom.expr = Linexpr.add_const Q.one expr; rel = Atom.Le }
  | Atom.Le | Atom.Eq -> { a with expr }

(* GCD-based tightening of an integral atom.  For [a . x + k <= 0] with
   g = gcd of the variable coefficients, the atom is equivalent over the
   integers to [a/g . x + ceil(k/g) <= 0]; for equalities, g must divide
   k or the atom is infeasible.
   @raise Infeasible when an equality has a divisibility conflict. *)
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

(* Find an equality with a +-1 coefficient on some variable and return
   (x, e) such that the equality is equivalent to [x = e]. *)
let solvable_equality (a : Atom.t) =
  match a.rel with
  | Atom.Le | Atom.Lt -> None
  | Atom.Eq ->
    let rec pick = function
      | [] -> None
      | (c, x) :: rest ->
        if Q.equal (Q.abs c) Q.one then begin
          (* c*x + rest = 0  =>  x = -(rest)/c *)
          let rest_expr = Linexpr.add_term (Q.neg c) x a.expr in
          Some (x, Linexpr.scale (Q.neg (Q.inv c)) rest_expr)
        end
        else pick rest
    in
    pick (Linexpr.terms a.expr)

(* Preprocess a conjunction: tighten, then repeatedly eliminate solvable
   equalities by substitution.  Returns the reduced atoms and the list of
   bindings (in elimination order) for model reconstruction.  Only the
   overflow fallback of {!front_end} runs it.
   @raise Infeasible on a trivially false atom. *)
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

(* ------------------------------------------------------------------ *)
(* Native-int front end of {!solve}: {!normalize}, {!tighten} and
   {!preprocess} computed over native integers.  Each non-constant atom
   is read once into a row of sorted parallel arrays (variables,
   coefficients) plus a constant, already normalized (integral, [Lt]
   turned into [Le]) and tightened.  Elimination keeps {!preprocess}'s
   order — the first live equality with a +-1 coefficient, in list
   order, on its lowest such variable — and substitutes only into the
   rows that contain the eliminated variable: an occurrence list per
   variable names the candidates, and a binary search in each confirms
   it.  The reduced atoms, the bindings and every refutation are
   therefore exactly {!preprocess}'s, so the simplex sees the same list.
   Every value is kept strictly inside +-2^61 (so a sum of two never
   wraps); anything larger raises [Overflow] and the query falls back
   to {!preprocess}. *)

exception Overflow

let bound = 1 lsl 61

let checked v = if v >= bound || v <= -bound then raise Overflow else v
let add_ck a b = checked (a + b)

let mul_ck a b =
  if a = 0 || b = 0 then 0
  else if abs a > (bound - 1) / abs b then raise Overflow
  else a * b

let int_of_big b = match B.to_int b with Some v -> checked v | None -> raise Overflow
let den_int q = if Q.is_integer q then 1 else int_of_big (Q.den q)

let rec gcd_int a b = if b = 0 then a else gcd_int b (a mod b)

type row = {
  src : Atom.t;  (** the input atom, returned as is while [changed] is false *)
  eq : bool;  (** [Eq]; otherwise [Le] *)
  mutable vs : int array;  (** variables, strictly increasing *)
  mutable cs : int array;  (** their coefficients, never zero *)
  mutable k : int;  (** the constant *)
  mutable changed : bool;  (** differs from [src] *)
  mutable live : bool;  (** not yet eliminated or dropped as trivially true *)
}

(* [tighten] on a row, in place. *)
let tighten_row r =
  let g = Array.fold_left (fun g c -> if g = 1 then 1 else gcd_int g (abs c)) 0 r.cs in
  if g > 1 then begin
    if r.eq then begin
      if r.k mod g <> 0 then raise Infeasible;
      r.k <- r.k / g
    end
    else r.k <- (if r.k mod g > 0 then (r.k / g) + 1 else r.k / g);
    r.cs <- Array.map (fun c -> c / g) r.cs;
    r.changed <- true
  end

(* [normalize] then [tighten], on a non-constant atom. *)
let row_of_atom (a : Atom.t) =
  let terms = Linexpr.terms a.expr and k = Linexpr.constant a.expr in
  let l =
    List.fold_left
      (fun l (c, _) ->
        let d = den_int c in
        if d = 1 then l else mul_ck (l / gcd_int l d) d)
      (den_int k) terms
  in
  let scaled q =
    if l = 1 then int_of_big (Q.num q) else mul_ck (int_of_big (Q.num q)) (l / den_int q)
  in
  let n = List.length terms in
  let vs = Array.make n 0 and cs = Array.make n 0 in
  List.iteri
    (fun i (c, x) ->
      vs.(i) <- x;
      cs.(i) <- scaled c)
    terms;
  let k = if a.rel = Atom.Lt then add_ck (scaled k) 1 else scaled k in
  let r =
    { src = a; eq = a.rel = Atom.Eq; vs; cs; k; changed = l <> 1 || a.rel = Atom.Lt;
      live = true }
  in
  tighten_row r;
  r

let index_of x vs =
  let rec go lo hi =
    if lo >= hi then -1
    else
      let mid = (lo + hi) lsr 1 in
      let v = vs.(mid) in
      if v = x then mid else if v < x then go (mid + 1) hi else go lo mid
  in
  go 0 (Array.length vs)

(* Replace the variable at position [p] of [r] by [e = evs . ecs + ek]
   (which does not mention it): a sorted merge of the rest of [r] with
   [c * e], dropping cancelled terms. *)
let subst_row r p (evs, ecs, ek) =
  let c = r.cs.(p) in
  let n = Array.length r.vs and m = Array.length evs in
  let vs = Array.make (n - 1 + m) 0 and cs = Array.make (n - 1 + m) 0 in
  let o = ref 0 in
  let emit v a =
    if a <> 0 then begin
      vs.(!o) <- v;
      cs.(!o) <- a;
      incr o
    end
  in
  let rec merge i j =
    if i = p then merge (i + 1) j
    else if i < n && (j = m || r.vs.(i) < evs.(j)) then begin
      emit r.vs.(i) r.cs.(i);
      merge (i + 1) j
    end
    else if j < m && (i = n || evs.(j) < r.vs.(i)) then begin
      emit evs.(j) (mul_ck c ecs.(j));
      merge i (j + 1)
    end
    else if i < n then begin
      emit r.vs.(i) (add_ck r.cs.(i) (mul_ck c ecs.(j)));
      merge (i + 1) (j + 1)
    end
  in
  merge 0 0;
  r.vs <- Array.sub vs 0 !o;
  r.cs <- Array.sub cs 0 !o;
  r.k <- add_ck r.k (mul_ck c ek);
  r.changed <- true

(* The first live row of [eqs] (the equalities, in list order) with a
   +-1 coefficient, and the position of its lowest such variable. *)
let next_unit eqs =
  let rec find_row i =
    if i = Array.length eqs then None
    else
      let r = eqs.(i) in
      let rec find_pos p =
        if p = Array.length r.cs then find_row (i + 1)
        else if abs r.cs.(p) = 1 then Some (r, p)
        else find_pos (p + 1)
      in
      if r.live then find_pos 0 else find_row (i + 1)
  in
  find_row 0

let linexpr_of vs cs k =
  Linexpr.of_int_terms (Array.to_list (Array.map2 (fun c v -> (c, v)) cs vs)) k

let atom_of_row r =
  if not r.changed then r.src
  else { Atom.expr = linexpr_of r.vs r.cs r.k; rel = (if r.eq then Atom.Eq else Atom.Le) }

(* Occurrence lists, indexed by variable: a superset of the live rows
   containing it (a row is added again when a substitution brings the
   variable in, and never removed).  A substitution only brings in
   variables of other rows, so the initial range of variables bounds
   the index.  Variables outside [0, 4 * total occurrences + 64) would
   make the array too sparse; then every list is the whole of [rows]. *)
let occurrences rows =
  let lo = ref max_int and hi = ref (-1) and total = ref 0 in
  Array.iter
    (fun r ->
      let n = Array.length r.vs in
      total := !total + n;
      lo := min !lo r.vs.(0);
      hi := max !hi r.vs.(n - 1))
    rows;
  if !lo < 0 || !hi >= (4 * !total) + 64 then begin
    let all = Array.to_list rows in
    ((fun _ -> all), fun _ _ -> ())
  end
  else begin
    let occ = Array.make (!hi + 1) [] in
    for i = Array.length rows - 1 downto 0 do
      let r = rows.(i) in
      Array.iter (fun v -> occ.(v) <- r :: occ.(v)) r.vs
    done;
    ((fun x -> occ.(x)), fun r vs -> Array.iter (fun v -> occ.(v) <- r :: occ.(v)) vs)
  end

(* The reduced atoms and the bindings, newest first, that {!preprocess}
   returns for [List.map normalize atoms].
   @raise Infeasible where {!preprocess} does.
   @raise Overflow when a value leaves +-2^61. *)
let native_front_end atoms =
  if List.exists (fun a -> Atom.trivial a = Some false) atoms then raise Infeasible;
  let rows =
    List.filter_map
      (fun (a : Atom.t) -> if Linexpr.is_const a.expr then None else Some (row_of_atom a))
      atoms
    |> Array.of_list
  in
  let eqs = Array.of_list (List.filter (fun r -> r.eq) (Array.to_list rows)) in
  let containing, add_occurrences = occurrences rows in
  let rec eliminate bindings =
    match next_unit eqs with
    | None -> bindings
    | Some (r, p) ->
      (* [c x + rest = 0] with [c = +-1]: [x = -c rest]. *)
      let x = r.vs.(p) and c = r.cs.(p) in
      let skip i = if i < p then i else i + 1 in
      let ((evs, _, _) as e) =
        ( Array.init (Array.length r.vs - 1) (fun i -> r.vs.(skip i)),
          Array.init (Array.length r.cs - 1) (fun i -> -c * r.cs.(skip i)),
          -c * r.k )
      in
      r.live <- false;
      List.iter
        (fun r' ->
          if r'.live then begin
            let q = index_of x r'.vs in
            if q >= 0 then begin
              subst_row r' q e;
              tighten_row r';
              if Array.length r'.vs = 0 then begin
                if (r'.eq && r'.k <> 0) || r'.k > 0 then raise Infeasible;
                r'.live <- false
              end
              else add_occurrences r' evs
            end
          end)
        (containing x);
      eliminate ((x, e) :: bindings)
  in
  let bindings = eliminate [] in
  let reduced =
    Array.fold_right (fun r acc -> if r.live then atom_of_row r :: acc else acc) rows []
  in
  (reduced, fun () -> List.map (fun (x, (evs, ecs, ek)) -> (x, linexpr_of evs ecs ek)) bindings)

(* The reduced atoms, and a thunk for the bindings newest first (only a
   satisfiable query needs them). *)
let front_end atoms =
  match native_front_end atoms with
  | r -> r
  | exception Overflow ->
    let reduced, bindings = preprocess (List.map normalize atoms) in
    (reduced, fun () -> List.rev bindings)

let fractional q = not (Q.is_integer q)

let solve ?steps ?(max_steps = 20_000) ?stop atoms =
  let budget = ref max_steps in
  let finish result =
    (match steps with Some r -> r := !r + (max_steps - !budget) | None -> ());
    result
  in
  let stopped () = match stop with Some f -> f () | None -> false in
  match
    let reduced, bindings = front_end atoms in
    let rec branch atoms depth =
      (* Checking at every branch node (not only inside the simplex
         pivot loop) keeps the overshoot bound meaningful for tiny
         relaxations that finish in fewer than [Simplex.stop_interval]
         pivots. *)
      if stopped () then raise Simplex.Timeout;
      if !budget <= 0 || depth > 600 then raise Budget;
      decr budget;
      match Simplex.solve ?stop atoms with
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
    | None -> Unsat
    | Some model ->
      (* Reconstruct eliminated variables in reverse elimination order,
         then fill any variable that vanished entirely with zero. *)
      let value = Hashtbl.create 16 in
      List.iter (fun (v, q) -> Hashtbl.replace value v q) model;
      let lookup v = match Hashtbl.find_opt value v with Some q -> q | None -> Q.zero in
      List.iter (fun (x, e) -> Hashtbl.replace value x (Linexpr.eval lookup e)) (bindings ());
      let all_vars = List.concat_map Atom.vars atoms |> List.sort_uniq Int.compare in
      Sat (List.map (fun v -> (v, Q.to_bigint (lookup v))) all_vars)
  with
  | result -> finish result
  | exception Infeasible -> finish Unsat
  | exception Budget -> finish Unknown
  | exception Simplex.Timeout -> finish Timeout

(* ------------------------------------------------------------------ *)
(* Incremental assertion stack: a thin integer layer over
   {!Simplex.Session}.  Atoms are normalized and GCD-tightened at assert
   time (catching divisibility conflicts and trivially false constants
   at zero solver cost), deduplicated up to {!Atom.canonical}, and pushed
   onto the warm simplex tableau.  [check] first replays the last
   satisfying integral model against the atoms asserted since it was
   found — on the enumeration DFS the parent's model usually still
   satisfies the child's extended prefix, so most reachability checks
   are a cache hit costing a handful of evaluations — and only then
   falls back to branch-and-bound over session push/pop. *)

module Canon = Hashtbl.Make (struct
  type t = Atom.t

  (* Keys are already canonical, so compare components directly and let
     Linexpr's cached hash do the work. *)
  let equal (a : Atom.t) (b : Atom.t) = a.rel = b.rel && Linexpr.equal a.expr b.expr
  let hash (a : Atom.t) = (Linexpr.hash a.expr * 3) + Hashtbl.hash a.rel
end)

(* Unsat cores are sets of log indices (the assert-order position of an
   atom).  [None] means "provenance lost" — an untracked participant or a
   core that outgrew the cap — and degrades gracefully to "assume the
   newest frame is involved".  The cap bounds the cost of the sorted-set
   unions on pathological propagation chains. *)
let core_cap = 64

let union_core a b =
  match (a, b) with
  | Some xs, Some ys ->
    let u = List.sort_uniq Int.compare (List.rev_append xs ys) in
    if List.length u > core_cap then None else Some u
  | _ -> None

(* Tag namespace for branch-and-bound cuts asserted into the simplex
   session: disjoint from log indices, so conflict explanations can tell
   input atoms from cuts.  The cut for branch depth [d] is tagged
   [cut_base + d]. *)
let cut_base = max_int / 2

type frame = {
  saved_len : int;
  saved_infeasible : bool;
  saved_why : int list option;
  saved_trail : int;
  mutable added : Atom.t list;  (** canonical keys to retract from [seen] *)
}

type var_bounds = {
  mutable lo : B.t option;
  mutable hi : B.t option;
  mutable lo_core : int list option;  (** log indices the bound rests on *)
  mutable hi_core : int list option;
}

type session = {
  sx : Simplex.Session.t;
  seen : unit Canon.t;  (** live asserted atoms, canonical, for dedup *)
  mutable log : Atom.t list;  (** asserted atoms, newest first *)
  mutable len : int;
  mutable frames : frame list;
  mutable infeasible : bool;
  mutable why : int list option;
      (** when [infeasible]: an unsat core over log indices *)
  depths : (int, int) Hashtbl.t;
      (** log index -> assertion-stack depth at assert time *)
  mutable model : (int * B.t) list option;  (** last satisfying model *)
  mutable model_valid_upto : int;  (** log prefix the model is known to satisfy *)
  bounds : (int, var_bounds) Hashtbl.t;
      (** interval store maintained by assert-time propagation *)
  mutable trail :
    (int * B.t option * B.t option * int list option * int list option) list;
      (** bound updates to undo on pop: (var, old lo, old hi, old cores) *)
  mutable trail_len : int;
}

let create () =
  {
    sx = Simplex.Session.create ();
    seen = Canon.create 256;
    log = [];
    len = 0;
    frames = [];
    infeasible = false;
    why = None;
    depths = Hashtbl.create 256;
    model = None;
    model_valid_upto = 0;
    bounds = Hashtbl.create 64;
    trail = [];
    trail_len = 0;
  }

let push s =
  Simplex.Session.push s.sx;
  s.frames <-
    { saved_len = s.len;
      saved_infeasible = s.infeasible;
      saved_why = s.why;
      saved_trail = s.trail_len;
      added = [] }
    :: s.frames

let pop s =
  match s.frames with
  | [] -> invalid_arg "Lia.pop: empty assertion stack"
  | frame :: rest ->
    Simplex.Session.pop s.sx;
    List.iter (fun key -> Canon.remove s.seen key) frame.added;
    let drop = s.len - frame.saved_len in
    s.log <- List.filteri (fun i _ -> i >= drop) s.log;
    s.len <- frame.saved_len;
    s.model_valid_upto <- min s.model_valid_upto s.len;
    s.infeasible <- frame.saved_infeasible;
    s.why <- frame.saved_why;
    while s.trail_len > frame.saved_trail do
      match s.trail with
      | [] -> assert false
      | (v, lo, hi, lo_core, hi_core) :: rest ->
        let b = Hashtbl.find s.bounds v in
        b.lo <- lo;
        b.hi <- hi;
        b.lo_core <- lo_core;
        b.hi_core <- hi_core;
        s.trail <- rest;
        s.trail_len <- s.trail_len - 1
    done;
    s.frames <- rest

let depth s = List.length s.frames

(* Map an unsat core to the deepest assertion-stack frame it touches:
   atoms at depths beyond that frame are irrelevant to the conflict, so
   the conjunction was already infeasible there. *)
let core_depth s core =
  match core with
  | None -> None
  | Some tags ->
    Some
      (List.fold_left
         (fun acc t ->
           match Hashtbl.find_opt s.depths t with
           | Some d -> max acc d
           | None -> max acc max_int)
         0 tags)

let mark_infeasible s why =
  if not s.infeasible then begin
    s.infeasible <- true;
    s.why <- why
  end

let unsat_core s = if s.infeasible then s.why else None

let unsat_depth s = if s.infeasible then core_depth s s.why else None

(* ------------------------------------------------------------------ *)
(* Assert-time interval propagation.  A cheap, sound refutation layer
   over the asserted conjunction: per-variable integer intervals are
   tightened by bounds consequence — for [sum c_i x_i + k <= 0], each
   [c_j x_j] is at most [-k] minus a lower bound on the other terms, so
   [x_j <= fdiv rhs c_j] (or [>= cdiv] for negative [c_j]; the rounding
   is sound because all variables are integral).  An empty interval
   proves the conjunction unsatisfiable without touching the simplex,
   which is what lets {!check_quick} answer reachability queries at
   zero solver-step cost.  All updates go through the trail so {!pop}
   restores the store exactly. *)

let var_bounds_of s v =
  match Hashtbl.find_opt s.bounds v with
  | Some b -> b
  | None ->
    let b = { lo = None; hi = None; lo_core = None; hi_core = None } in
    Hashtbl.add s.bounds v b;
    b

let record s v (b : var_bounds) =
  s.trail <- (v, b.lo, b.hi, b.lo_core, b.hi_core) :: s.trail;
  s.trail_len <- s.trail_len + 1

let improve_lo s v x ~core =
  let b = var_bounds_of s v in
  match b.lo with
  | Some l when B.compare l x >= 0 -> false
  | _ ->
    record s v b;
    b.lo <- Some x;
    b.lo_core <- core;
    (match b.hi with
     | Some h when B.compare x h > 0 -> mark_infeasible s (union_core core b.hi_core)
     | _ -> ());
    true

let improve_hi s v x ~core =
  let b = var_bounds_of s v in
  match b.hi with
  | Some h when B.compare h x <= 0 -> false
  | _ ->
    record s v b;
    b.hi <- Some x;
    b.hi_core <- core;
    (match b.lo with
     | Some l when B.compare l x > 0 -> mark_infeasible s (union_core core b.lo_core)
     | _ -> ());
    true

(* Propagate one [expr <= 0] atom (integer coefficients); returns true
   if some interval was tightened.  [core] is the asserting atom's own
   core (its log index); derived bounds carry the union of it and the
   cores of every bound used to derive them. *)
let propagate_le s ~core expr =
  let terms = List.map (fun (c, v) -> (Q.to_bigint c, v)) (Linexpr.terms expr) in
  let k = Q.to_bigint (Linexpr.constant expr) in
  let improved = ref false in
  List.iter
    (fun (cj, xj) ->
      (* Lower-bound [sum_{i<>j} c_i x_i]; None when some needed bound
         is missing. *)
      let rest =
        List.fold_left
          (fun acc (ci, xi) ->
            match acc with
            | None -> None
            | Some (sum, used) ->
              if xi = xj then Some (sum, used)
              else
                let b = var_bounds_of s xi in
                let contrib =
                  if B.sign ci > 0 then
                    match b.lo with
                    | Some l -> Some (B.mul ci l, b.lo_core)
                    | None -> None
                  else
                    match b.hi with
                    | Some h -> Some (B.mul ci h, b.hi_core)
                    | None -> None
                in
                (match contrib with
                 | Some (c, cr) -> Some (B.add sum c, union_core used cr)
                 | None -> None))
          (Some (B.zero, core))
          terms
      in
      match rest with
      | None -> ()
      | Some (sum, used) ->
        let rhs = B.sub (B.neg k) sum in
        if B.sign cj > 0 then begin
          if improve_hi s xj (B.fdiv rhs cj) ~core:used then improved := true
        end
        else if improve_lo s xj (B.cdiv rhs cj) ~core:used then improved := true)
    terms;
  !improved

let propagate_atom s ~core (a : Atom.t) =
  match a.rel with
  | Atom.Le -> propagate_le s ~core a.expr
  | Atom.Eq ->
    let fwd = propagate_le s ~core a.expr in
    let bwd = propagate_le s ~core (Linexpr.neg a.expr) in
    fwd || bwd
  | Atom.Lt -> propagate_le s ~core (Linexpr.add_const Q.one a.expr)

(* Run propagation to a bounded fixpoint over the live conjunction.
   The round cap keeps slowly-converging chains from dominating assert
   cost; it only limits how much gets refuted for free, never
   soundness. *)
let max_propagation_rounds = 16

let propagate_fixpoint s =
  let rec loop rounds =
    if rounds > 0 && not s.infeasible then begin
      let improved =
        List.fold_left
          (fun (i, acc) a ->
            let tag = s.len - 1 - i in
            (i + 1, propagate_atom s ~core:(Some [ tag ]) a || acc))
          (0, false) s.log
        |> snd
      in
      if improved then loop (rounds - 1)
    end
  in
  loop max_propagation_rounds

(* Register a freshly logged atom with the dedup/frame bookkeeping and
   the provenance tables, returning its tag (log index). *)
let log_atom s key a =
  Canon.replace s.seen key ();
  (match s.frames with
   | [] -> ()  (* base level: permanent, never retracted *)
   | frame :: _ -> frame.added <- key :: frame.added);
  let tag = s.len in
  s.log <- a :: s.log;
  s.len <- s.len + 1;
  Hashtbl.replace s.depths tag (depth s);
  tag

let assert_atoms s atoms =
  let fresh = ref false in
  List.iter
    (fun a ->
      if not s.infeasible then begin
        let normalized = normalize a in
        match tighten normalized with
        | exception Infeasible ->
          (* The divisibility conflict is the atom alone: log it so the
             core can cite it. *)
          let tag = log_atom s (Atom.canonical normalized) normalized in
          mark_infeasible s (Some [ tag ])
        | a -> (
          match Atom.trivial a with
          | Some true -> ()
          | Some false ->
            let tag = log_atom s (Atom.canonical a) a in
            mark_infeasible s (Some [ tag ])
          | None ->
            let key = Atom.canonical a in
            if not (Canon.mem s.seen key) then begin
              let tag = log_atom s key a in
              Simplex.Session.assert_atom ~tag s.sx a;
              if Simplex.Session.is_infeasible s.sx then begin
                let why =
                  match Simplex.Session.infeasible_expl s.sx with
                  | None -> None
                  | Some expl -> Some (List.map fst expl)
                in
                mark_infeasible s why
              end
              else begin
                ignore (propagate_atom s ~core:(Some [ tag ]) a);
                fresh := true
              end
            end)
      end)
    atoms;
  if !fresh && not s.infeasible then propagate_fixpoint s

(* The delta-rational simplex assignment, concretized exactly as in
   {!Simplex.solve}: substitute a concrete positive value for delta,
   halving until every asserted atom (including the branch-and-bound
   cuts currently on the stack) holds. *)
let concretize s cuts vars =
  let deltas = List.map (fun v -> (v, Simplex.Session.value s.sx v)) vars in
  let atoms = List.rev_append cuts s.log in
  let rec go d tries =
    if tries = 0 then None
    else begin
      let assign v =
        match List.assoc_opt v deltas with
        | Some { Delta.r; d = k } -> Q.add r (Q.mul k d)
        | None -> Q.zero
      in
      if List.for_all (Atom.holds assign) atoms then
        Some (List.map (fun (v, _) -> (v, assign v)) deltas)
      else go (Q.div d (Q.of_int 2)) (tries - 1)
    end
  in
  go Q.one 4096

(* Model-cache fast path: does the last model satisfy the atoms
   asserted since it was found? *)
let cached_model s =
  match s.model with
  | None -> None
  | Some m ->
    let assign v =
      match List.assoc_opt v m with Some b -> Q.of_bigint b | None -> Q.zero
    in
    let fresh = s.len - s.model_valid_upto in
    let rec holds_fresh i = function
      | _ when i >= fresh -> true
      | [] -> true
      | a :: rest -> Atom.holds assign a && holds_fresh (i + 1) rest
    in
    if holds_fresh 0 s.log then Some m else None

(* Answer from the incremental prefix state alone — the propagated
   interval store and the model cache — at zero simplex cost.  Unknown
   means "the cheap layers cannot decide"; the caller either descends
   (reachability pruning) or falls back to {!check}. *)
let check_quick ?hits s =
  let bump () = match hits with Some r -> incr r | None -> () in
  if s.infeasible then begin
    bump ();
    Unsat
  end
  else
    match cached_model s with
    | Some m ->
      bump ();
      s.model_valid_upto <- s.len;
      Sat m
    | None -> Unknown

let check ?steps ?hits ?(max_steps = 20_000) ?stop s =
  let budget = ref max_steps in
  let finish result =
    (match steps with Some r -> r := !r + (max_steps - !budget) | None -> ());
    result
  in
  let stopped () = match stop with Some f -> f () | None -> false in
  if s.infeasible then finish Unsat
  else begin
    match cached_model s with
    | Some m ->
      (match hits with Some r -> incr r | None -> ());
      s.model_valid_upto <- s.len;
      finish (Sat m)
    | None -> (
      let vars = List.concat_map Atom.vars s.log |> List.sort_uniq Int.compare in
      (* Union of input tags across every refuted leaf of the B&B tree:
         cuts are existentially discharged by the case split, so dropping
         them leaves a core over asserted atoms. *)
      let core_acc = ref (Some []) in
      let note_conflict expl =
        let leaf =
          match expl with
          | None -> None
          | Some e ->
            Some (List.filter_map (fun (t, _) -> if t < cut_base then Some t else None) e)
        in
        core_acc := union_core !core_acc leaf
      in
      let rec branch cuts depth =
        if stopped () then raise Simplex.Timeout;
        if !budget <= 0 || depth > 600 then raise Budget;
        decr budget;
        match Simplex.Session.check ?stop s.sx with
        | `Unsat expl ->
          note_conflict expl;
          None
        | `Sat -> (
          match concretize s cuts vars with
          | None -> raise Budget
          | Some model -> (
            match List.find_opt (fun (_, q) -> fractional q) model with
            | None -> Some model
            | Some (v, q) ->
              let f = Q.floor q in
              let cut rel_expr =
                { Atom.expr = rel_expr; rel = Atom.Le }
              in
              let low =
                cut (Linexpr.sub (Linexpr.var v) (Linexpr.const (Q.of_bigint f)))
              in
              let high =
                cut
                  (Linexpr.sub
                     (Linexpr.const (Q.of_bigint (B.succ f)))
                     (Linexpr.var v))
              in
              let try_cut c =
                Simplex.Session.push s.sx;
                Simplex.Session.assert_atom ~tag:(cut_base + depth) s.sx c;
                let r =
                  match branch (c :: cuts) (depth + 1) with
                  | r -> r
                  | exception e ->
                    Simplex.Session.pop s.sx;
                    raise e
                in
                Simplex.Session.pop s.sx;
                r
              in
              (match try_cut low with Some m -> Some m | None -> try_cut high)))
      in
      match branch [] 0 with
      | exception Budget -> finish Unknown
      | exception Simplex.Timeout -> finish Timeout
      | None ->
        mark_infeasible s !core_acc;
        finish Unsat
      | Some model ->
        let m = List.map (fun (v, q) -> (v, Q.to_bigint q)) model in
        s.model <- Some m;
        s.model_valid_upto <- s.len;
        finish (Sat m))
  end

let check_model atoms model =
  let assign v =
    match List.assoc_opt v model with
    | Some b -> Q.of_bigint b
    | None -> Q.zero
  in
  List.for_all (Atom.holds assign) atoms

(* ------------------------------------------------------------------ *)
(* Certifying engine: branch-and-bound over a fresh tagged session
   where every simplex conflict is turned into a Farkas leaf and every
   integer case split into a [Certificate.Branch] node.  Equality
   elimination and interval propagation are deliberately absent — each
   refutation must be expressible in the certificate grammar alone. *)

type cert_result =
  | Cert_sat of (int * B.t) list
  | Cert_unsat of Certificate.t
  | Cert_unknown
  | Cert_timeout

let rec cert_uses_cut d = function
  | Certificate.Farkas ps ->
    List.exists (fun (p : Certificate.premise) -> p.reason = Certificate.Cut d) ps
  | Certificate.Div_conflict _ -> false
  | Certificate.Branch { low; high; _ } -> cert_uses_cut d low || cert_uses_cut d high
  | Certificate.Split { certs; _ } -> List.exists (cert_uses_cut d) certs
  | Certificate.Static c -> cert_uses_cut d c

(* A backjump hoists a child certificate past the dropped cut at depth
   [d]: cut citations above [d] shift down one position to match the
   checker's Branch-relative numbering. *)
let rec remap_cuts d = function
  | Certificate.Farkas ps ->
    Certificate.Farkas
      (List.map
         (fun (p : Certificate.premise) ->
           match p.reason with
           | Certificate.Cut j when j > d -> { p with reason = Certificate.Cut (j - 1) }
           | _ -> p)
         ps)
  | Certificate.Div_conflict _ as c -> c
  | Certificate.Branch b ->
    Certificate.Branch { b with low = remap_cuts d b.low; high = remap_cuts d b.high }
  | Certificate.Split sp ->
    Certificate.Split { sp with certs = List.map (remap_cuts d) sp.certs }
  | Certificate.Static c -> Certificate.Static (remap_cuts d c)

let solve_cert ?steps ?(max_steps = 20_000) ?stop atoms =
  let budget = ref max_steps in
  let finish result =
    (match steps with Some r -> r := !r + (max_steps - !budget) | None -> ());
    result
  in
  let stopped () = match stop with Some f -> f () | None -> false in
  let inputs = Array.of_list atoms in
  let all_vars = List.concat_map Atom.vars atoms |> List.sort_uniq Int.compare in
  let sx = Simplex.Session.create () in
  let asserted = Hashtbl.create 16 in
  (* [cuts] is the branch path, newest first; a conflict explanation maps
     back to premise atoms through [asserted] (inputs) and [cuts]. *)
  let farkas_of cuts expl =
    let ncuts = List.length cuts in
    Option.map
      (fun e ->
        Certificate.Farkas
          (List.map
             (fun (t, lam) ->
               if t >= cut_base then
                 let d = t - cut_base in
                 { Certificate.coeff = lam;
                   atom = List.nth cuts (ncuts - 1 - d);
                   reason = Certificate.Cut d }
               else
                 { Certificate.coeff = lam;
                   atom = Hashtbl.find asserted t;
                   reason = Certificate.Input t })
             e))
      expl
  in
  let concretize cuts =
    let deltas = List.map (fun v -> (v, Simplex.Session.value sx v)) all_vars in
    let live = Hashtbl.fold (fun _ a acc -> a :: acc) asserted cuts in
    let rec go d tries =
      if tries = 0 then None
      else begin
        let assign v =
          match List.assoc_opt v deltas with
          | Some { Delta.r; d = k } -> Q.add r (Q.mul k d)
          | None -> Q.zero
        in
        if List.for_all (Atom.holds assign) live then
          Some (List.map (fun (v, _) -> (v, assign v)) deltas)
        else go (Q.div d (Q.of_int 2)) (tries - 1)
      end
    in
    go Q.one 4096
  in
  match
    let conflict = ref None in
    Array.iteri
      (fun i a ->
        if !conflict = None then begin
          let a_n = normalize a in
          match Atom.trivial a_n with
          | Some true -> ()
          | Some false ->
            (* A trivially false equality can carry a constant of either
               sign; the multiplier must match it so the combination's
               constant comes out positive. *)
            let coeff =
              if Q.sign (Linexpr.constant a_n.Atom.expr) < 0 then Q.minus_one
              else Q.one
            in
            conflict :=
              Some
                (Certificate.Farkas
                   [ { Certificate.coeff; atom = a_n; reason = Certificate.Input i } ])
          | None -> (
            match tighten a_n with
            | exception Infeasible ->
              conflict := Some (Certificate.Div_conflict { index = i; atom = a_n })
            | a_t ->
              Hashtbl.replace asserted i a_t;
              Simplex.Session.assert_atom ~tag:i sx a_t;
              if Simplex.Session.is_infeasible sx then begin
                match farkas_of [] (Simplex.Session.infeasible_expl sx) with
                | Some c -> conflict := Some c
                | None -> raise Budget
              end)
        end)
      inputs;
    match !conflict with
    | Some c -> `Unsat c
    | None ->
      let rec branch cuts depth =
        if stopped () then raise Simplex.Timeout;
        if !budget <= 0 || depth > 600 then raise Budget;
        decr budget;
        match Simplex.Session.check ?stop sx with
        | `Unsat expl -> (
          match farkas_of cuts expl with Some c -> `Unsat c | None -> raise Budget)
        | `Sat -> (
          match concretize cuts with
          | None -> raise Budget
          | Some model -> (
            match List.find_opt (fun (_, q) -> fractional q) model with
            | None -> `Sat model
            | Some (v, q) -> (
              let f = Q.floor q in
              let low =
                { Atom.expr =
                    Linexpr.sub (Linexpr.var v) (Linexpr.const (Q.of_bigint f));
                  rel = Atom.Le }
              in
              let high =
                { Atom.expr =
                    Linexpr.sub
                      (Linexpr.const (Q.of_bigint (B.succ f)))
                      (Linexpr.var v);
                  rel = Atom.Le }
              in
              let explore c =
                Simplex.Session.push sx;
                Simplex.Session.assert_atom ~tag:(cut_base + depth) sx c;
                let r =
                  match branch (c :: cuts) (depth + 1) with
                  | r -> r
                  | exception e ->
                    Simplex.Session.pop sx;
                    raise e
                in
                Simplex.Session.pop sx;
                r
              in
              match explore low with
              | `Sat m -> `Sat m
              | `Unsat c_low -> (
                if not (cert_uses_cut depth c_low) then
                  (* Backjump: the low refutation never used the cut, so
                     it refutes the parent context outright. *)
                  `Unsat (remap_cuts depth c_low)
                else
                  match explore high with
                  | `Sat m -> `Sat m
                  | `Unsat c_high ->
                    if not (cert_uses_cut depth c_high) then
                      `Unsat (remap_cuts depth c_high)
                    else
                      `Unsat
                        (Certificate.Branch { var = v; pivot = f; low = c_low; high = c_high })))))
      in
      branch [] 0
  with
  | `Sat model -> finish (Cert_sat (List.map (fun (v, q) -> (v, Q.to_bigint q)) model))
  | `Unsat c -> finish (Cert_unsat c)
  | exception Budget -> finish Cert_unknown
  | exception Simplex.Timeout -> finish Cert_timeout
