module A = Ta.Automaton
module G = Ta.Guard
module Q = Numbers.Rational
module L = Smt.Linexpr

type guard_id = int

type t = {
  ta : A.t;
  atoms : G.atom array;
  use_implication_order : bool;
  use_producibility : bool;
  (* precede.(h).(g): h => g, so g must unlock no later than h. *)
  precede : bool array array;
  (* threshold is >= 1 under the resilience condition, hence the guard
     needs a producer rule to have fired. *)
  needs_producer : bool array;
  (* rules that increment a variable of the guard. *)
  producers : A.rule list array;
  topo_rules : A.rule list;
  (* Location name -> index: the automaton's locations in order, then any
     undeclared rule endpoint (rejected by the structural precheck, but
     indexable here so [build] never fails on it). *)
  loc_index : (string, int) Hashtbl.t;
  (* [topo_rules] as (guard mask, source index, target index). *)
  moves : (int * int * int) array;
  (* canonical atom key -> guard id; see [atom_key] *)
  atom_index : ((string * int) list * (string * int) list * int, int) Hashtbl.t;
  rule_guard_ids : (string, int) Hashtbl.t;  (* rule name -> guard bitmask *)
  (* For each justice atom: guard ids it implies, guard ids implying it. *)
  justice_implies : (G.atom * int list * int list) list;
}

(* --- small LIA helper over the parameters and shared variables ------ *)

let var_env (ta : A.t) =
  let table = Hashtbl.create 16 in
  let next = ref 0 in
  let intern name =
    match Hashtbl.find_opt table name with
    | Some i -> i
    | None ->
      let i = !next in
      incr next;
      Hashtbl.replace table name i;
      i
  in
  List.iter (fun p -> ignore (intern ("p:" ^ p))) ta.params;
  List.iter (fun x -> ignore (intern ("s:" ^ x))) ta.shared;
  intern

let pexpr_linexpr intern (e : Ta.Pexpr.t) =
  L.of_int_terms (List.map (fun (p, c) -> (c, intern ("p:" ^ p))) e.coeffs) e.const

let guard_lhs intern (a : G.atom) =
  L.of_int_terms (List.map (fun (x, c) -> (c, intern ("s:" ^ x))) a.shared) 0

let base_atoms (ta : A.t) intern =
  let nonneg name = Smt.Atom.ge (L.var (intern name)) L.zero in
  List.map (fun e -> Smt.Atom.ge (pexpr_linexpr intern e) L.zero) ta.resilience
  @ List.map (fun p -> nonneg ("p:" ^ p)) ta.params
  @ List.map (fun x -> nonneg ("s:" ^ x)) ta.shared

let guard_true intern (a : G.atom) =
  Smt.Atom.ge (guard_lhs intern a) (pexpr_linexpr intern a.bound)

let guard_false intern (a : G.atom) =
  Smt.Atom.lt (guard_lhs intern a) (pexpr_linexpr intern a.bound)

let unsat atoms =
  match Smt.Lia.solve atoms with
  | Smt.Lia.Unsat -> true
  | Smt.Lia.Sat _ -> false
  | Smt.Lia.Unknown | Smt.Lia.Timeout -> false (* conservative: assume satisfiable *)

(* Structural key under which two atoms collide iff [G.atom_equal]: the
   shared side is sorted by construction, the bound's coefficient list is
   not ([Pexpr.compare] sorts on the fly), so sort it here. *)
let atom_key (a : G.atom) =
  (a.shared, List.sort Stdlib.compare a.bound.Ta.Pexpr.coeffs, a.bound.Ta.Pexpr.const)

(* Contexts are bitmasks over guard ids in a 63-bit OCaml int; id 62
   would shift into the sign bit. *)
let max_guard_atoms = 62

(* ------------------------------------------------------------------- *)

let build ?(use_implication_order = true) ?(use_producibility = true) (ta : A.t) =
  let atoms = Array.of_list (A.unique_guard_atoms ta) in
  let n = Array.length atoms in
  if n > max_guard_atoms then
    invalid_arg
      (Printf.sprintf
         "Universe.build: automaton %s has %d guard atoms, but contexts are bitmasks in a \
          63-bit integer supporting at most %d"
         ta.name n max_guard_atoms);
  let intern = var_env ta in
  let base = base_atoms ta intern in
  let precede =
    Array.init n (fun h ->
        Array.init n (fun g ->
            h <> g
            && unsat (guard_true intern atoms.(h) :: guard_false intern atoms.(g) :: base)))
  in
  let needs_producer =
    Array.init n (fun g ->
        (* Threshold can never be <= 0: the guard cannot hold while its
           variables are all zero. *)
        unsat
          (Smt.Atom.le (pexpr_linexpr intern atoms.(g).bound) L.zero :: base))
  in
  let producers =
    Array.init n (fun g ->
        let vars = List.map fst atoms.(g).shared in
        List.filter
          (fun (r : A.rule) -> List.exists (fun (x, c) -> c > 0 && List.mem x vars) r.update)
          ta.rules)
  in
  let atom_index = Hashtbl.create (2 * n) in
  Array.iteri (fun i a -> Hashtbl.replace atom_index (atom_key a) i) atoms;
  let guard_index a = Hashtbl.find atom_index (atom_key a) in
  let rule_guard_ids = Hashtbl.create 16 in
  List.iter
    (fun (r : A.rule) ->
      let mask =
        List.fold_left (fun acc a -> acc lor (1 lsl guard_index a)) 0 r.guard
      in
      Hashtbl.replace rule_guard_ids r.name mask)
    ta.rules;
  let topo_rules = A.topological_rule_order ta in
  let loc_index = Hashtbl.create 32 in
  let index l =
    match Hashtbl.find_opt loc_index l with
    | Some i -> i
    | None ->
      let i = Hashtbl.length loc_index in
      Hashtbl.add loc_index l i;
      i
  in
  List.iter (fun l -> ignore (index l)) ta.locations;
  let moves =
    Array.of_list
      (List.map
         (fun (r : A.rule) ->
           (Hashtbl.find rule_guard_ids r.name, index r.source, index r.target))
         topo_rules)
  in
  let justice_implies =
    List.concat_map (fun (j : A.justice) -> j.unless) ta.justice
    |> List.sort_uniq G.atom_compare
    |> List.map (fun a ->
           let implies_guards = ref [] and implied_by_guards = ref [] in
           for h = 0 to n - 1 do
             if unsat (guard_true intern a :: guard_false intern atoms.(h) :: base) then
               implies_guards := h :: !implies_guards;
             if unsat (guard_true intern atoms.(h) :: guard_false intern a :: base) then
               implied_by_guards := h :: !implied_by_guards
           done;
           (a, !implies_guards, !implied_by_guards))
  in
  {
    ta;
    atoms;
    use_implication_order;
    use_producibility;
    precede;
    needs_producer;
    producers;
    topo_rules;
    loc_index;
    moves;
    atom_index;
    rule_guard_ids;
    justice_implies;
  }

let automaton u = u.ta
let size u = Array.length u.atoms
let atom u g = u.atoms.(g)
let ids u = List.init (size u) Fun.id

let guard_ids u (g : G.t) =
  List.map
    (fun a ->
      match Hashtbl.find_opt u.atom_index (atom_key a) with
      | Some i -> i
      | None -> invalid_arg "Universe.guard_ids: atom not in universe")
    g

let must_precede u g h = u.precede.(h).(g)

let rule_mask u (r : A.rule) = Hashtbl.find u.rule_guard_ids r.name

let n_locations u = Hashtbl.length u.loc_index
let location_index u l = Hashtbl.find_opt u.loc_index l
let moves u = u.moves

let enabled_rules u ctx =
  List.filter (fun r -> rule_mask u r land lnot ctx = 0) u.topo_rules

(* Locations reachable from the initial ones via rules enabled in [ctx]. *)
let reachable_locs u ctx =
  let reach = Hashtbl.create 16 in
  List.iter (fun l -> Hashtbl.replace reach l ()) u.ta.initial;
  let changed = ref true in
  let rules = enabled_rules u ctx in
  while !changed do
    changed := false;
    List.iter
      (fun (r : A.rule) ->
        if Hashtbl.mem reach r.source && not (Hashtbl.mem reach r.target) then begin
          Hashtbl.replace reach r.target ();
          changed := true
        end)
      rules
  done;
  reach

let justice_atom_status u ctx (a : G.atom) =
  match
    List.find_opt (fun (b, _, _) -> G.atom_equal a b) u.justice_implies
  with
  | None -> `Unknown
  | Some (_, implies_guards, implied_by_guards) ->
    if List.exists (fun h -> ctx land (1 lsl h) = 0) implies_guards then `False
    else if List.exists (fun h -> ctx land (1 lsl h) <> 0) implied_by_guards then `True
    else `Unknown

let unlock_candidates u ctx =
  let n = size u in
  let reach = lazy (reachable_locs u ctx) in
  List.filter
    (fun g ->
      ctx land (1 lsl g) = 0
      (* Implication order: every guard implied by g must already be
         unlocked. *)
      && ((not u.use_implication_order)
         ||
         let ok = ref true in
         for g' = 0 to n - 1 do
           if g' <> g && u.precede.(g).(g') && ctx land (1 lsl g') = 0 then ok := false
         done;
         !ok)
      (* Producibility. *)
      && ((not u.use_producibility) || (not u.needs_producer.(g))
         || List.exists
              (fun (r : A.rule) ->
                rule_mask u r land lnot ctx = 0
                && Hashtbl.mem (Lazy.force reach) r.source)
              u.producers.(g)))
    (List.init n Fun.id)
