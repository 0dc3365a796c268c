module A = Ta.Automaton
module G = Ta.Guard
module Q = Numbers.Rational
module L = Smt.Linexpr

type var_kind =
  | Param of string
  | Init_counter of string
  | Factor of int * string

type encoded = {
  vars : (int * var_kind) list;
  n_slots : int;
  atoms : Smt.Atom.t list;
  branches : Smt.Atom.t list list list;
      (* Factored justice case-splits: for each entry, at least one of the
         alternative cubes (conjunctions of atoms) must hold in addition
         to [atoms].  Empty for safety specs and for liveness schemas
         whose final context decides every justice condition. *)
}

let get assoc name =
  match List.assoc_opt name assoc with
  | Some e -> e
  | None -> invalid_arg ("Encode: unknown name " ^ name)

let set assoc name e = (name, e) :: List.remove_assoc name assoc

(* ------------------------------------------------------------------ *)
(* Incremental encoding.

   The flat [encode] below is a left fold over the schema's events: the
   atoms (and SMT variable numbering) produced for a schema prefix are
   a function of the prefix alone, so two schemas sharing a prefix share
   an identical atom-list prefix.  The session exposes exactly that
   structure: [push_event] extends the current prefix and returns the
   atom delta; [pop_event] backtracks in O(1) (snapshots are immutable);
   [finalize] completes the current prefix into the full query — the
   trailing segment, stability pinning, observation and justice
   constraints are emitted on a copy, never into the prefix, which is
   what makes prefix unsatisfiability monotone down the enumeration
   tree (see DESIGN.md).  [encode u spec schema] is definitionally
   [start; push every event; finalize], so the incremental and flat
   paths cannot drift apart. *)

type snapshot = {
  next_var : int;
  vars_rev : (int * var_kind) list;
  n_slots : int;
  seg : int;
  ctx : int;
  counters : (string * L.t) list;
  shared : (string * L.t) list;
  entered : (string * L.t) list;
      (* kappa0 plus total inflow: "was this location ever populated" *)
}

type env = {
  u : Universe.t;
  ta : A.t;
  spec : Ta.Spec.t;
  param_vars : (string * int) list;
  observations : Ta.Cond.t array;
  moves : (int * int * int) array;  (* the slot simulation's rules, see Sim *)
}

type session = {
  env : env;
  base : Smt.Atom.t list;
  mutable stack : (snapshot * Smt.Atom.t list) list;
      (* top first; each level carries the atom delta it contributed *)
}

let fresh snap kind =
  ( { snap with
      next_var = snap.next_var + 1;
      vars_rev = (snap.next_var, kind) :: snap.vars_rev },
    snap.next_var )

let blocked env l = List.mem l env.spec.never_enter
let rule_allowed env (r : A.rule) = not (blocked env r.target)

(* {!Universe.moves} less the rules into a never-entered location: the
   moves [run_segment] may fire. *)
let allowed_moves u (spec : Ta.Spec.t) =
  match List.filter_map (Universe.location_index u) spec.never_enter with
  | [] -> Universe.moves u
  | blocked ->
    Array.of_list
      (List.filter
         (fun (_, _, target) -> not (List.mem target blocked))
         (Array.to_list (Universe.moves u)))

let pexpr env (e : Ta.Pexpr.t) =
  L.of_int_terms
    (List.map (fun (p, c) -> (c, List.assoc p env.param_vars)) e.coeffs)
    e.const

(* State condition -> atoms, over a snapshot's counters and shared. *)
let cond_atoms env snap (c : Ta.Cond.t) =
  List.map
    (fun (a : Ta.Cond.atom) ->
      let expr =
        List.fold_left
          (fun acc (term, coef) ->
            let e =
              match term with
              | Ta.Cond.Counter l -> get snap.counters l
              | Ta.Cond.Shared x -> get snap.shared x
              | Ta.Cond.Param p -> L.var (List.assoc p env.param_vars)
            in
            L.add acc (L.scale (Q.of_int coef) e))
          (L.of_int a.const) a.terms
      in
      match a.rel with
      | Ta.Cond.Ge -> Smt.Atom.ge expr L.zero
      | Ta.Cond.Le -> Smt.Atom.le expr L.zero
      | Ta.Cond.Eq -> Smt.Atom.eq expr L.zero)
    c

let guard_lhs snap (a : G.atom) =
  List.fold_left
    (fun acc (x, c) -> L.add acc (L.scale (Q.of_int c) (get snap.shared x)))
    L.zero a.shared

let guard_true_atom env snap (a : G.atom) =
  Smt.Atom.ge (guard_lhs snap a) (pexpr env a.bound)

let guard_false_atom env snap (a : G.atom) =
  Smt.Atom.lt (guard_lhs snap a) (pexpr env a.bound)

(* Fire the rules enabled by [snap.ctx] once each, accelerated, in
   topological order.  Returns the extended snapshot and the segment's
   atoms in reverse order.  A rule whose source counter is the zero
   expression cannot move anyone: skip the slot (keeps the queries small
   in early segments, where most locations are provably empty). *)
let run_segment env snap =
  List.fold_left
    (fun (snap, rev_atoms) (r : A.rule) ->
      if rule_allowed env r && not (L.equal (get snap.counters r.source) L.zero)
      then begin
        let snap, dv = fresh snap (Factor (snap.seg, r.name)) in
        let d = L.var dv in
        let src = L.sub (get snap.counters r.source) d in
        let counters = set snap.counters r.source src in
        let counters = set counters r.target (L.add (get counters r.target) d) in
        let entered =
          set snap.entered r.target (L.add (get snap.entered r.target) d)
        in
        let shared =
          List.fold_left
            (fun sh (x, c) -> set sh x (L.add (get sh x) (L.scale (Q.of_int c) d)))
            snap.shared r.update
        in
        ( { snap with counters; shared; entered; n_slots = snap.n_slots + 1 },
          Smt.Atom.ge src L.zero :: Smt.Atom.ge d L.zero :: rev_atoms )
      end
      else (snap, rev_atoms))
    (snap, [])
    (Universe.enabled_rules env.u snap.ctx)

let start u (spec : Ta.Spec.t) =
  let ta = Universe.automaton u in
  let rev_base = ref [] in
  let assert_atom a = rev_base := a :: !rev_base in
  let snap =
    ref
      {
        next_var = 0;
        vars_rev = [];
        n_slots = 0;
        seg = 0;
        ctx = 0;
        counters = [];
        shared = List.map (fun x -> (x, L.zero)) ta.shared;
        entered = [];
      }
  in
  let fresh_mut kind =
    let s, v = fresh !snap kind in
    snap := s;
    v
  in
  let param_vars = List.map (fun p -> (p, fresh_mut (Param p))) ta.params in
  let env =
    {
      u;
      ta;
      spec;
      param_vars;
      observations = Array.of_list (List.map snd spec.observations);
      moves = allowed_moves u spec;
    }
  in
  (* Resilience and non-negative parameters. *)
  List.iter (fun e -> assert_atom (Smt.Atom.ge (pexpr env e) L.zero)) ta.resilience;
  List.iter (fun (_, v) -> assert_atom (Smt.Atom.ge (L.var v) L.zero)) param_vars;
  (* Initial configuration. *)
  let init_counters =
    List.map
      (fun l ->
        if List.mem l ta.initial && not (blocked env l) then begin
          let v = fresh_mut (Init_counter l) in
          assert_atom (Smt.Atom.ge (L.var v) L.zero);
          (l, L.var v)
        end
        else (l, L.zero))
      ta.locations
  in
  snap := { !snap with counters = init_counters; entered = init_counters };
  let population =
    List.fold_left (fun acc l -> L.add acc (get init_counters l)) L.zero ta.initial
  in
  assert_atom (Smt.Atom.eq population (pexpr env ta.population));
  List.iter assert_atom (cond_atoms env !snap spec.init);
  let base = List.rev !rev_base in
  { env; base; stack = [ (!snap, base) ] }

let base_atoms s = s.base

let top s =
  match s.stack with
  | (snap, _) :: _ -> snap
  | [] -> assert false

let push_event s (ev : Schema.event) =
  let env = s.env in
  let snap, rev_seg = run_segment env (top s) in
  let snap = { snap with seg = snap.seg + 1 } in
  let snap, rev_atoms =
    match ev with
    | Schema.Unlock g ->
      let snap = { snap with ctx = snap.ctx lor (1 lsl g) } in
      (snap, guard_true_atom env snap (Universe.atom env.u g) :: rev_seg)
    | Schema.Observe i ->
      (snap, List.rev_append (cond_atoms env snap env.observations.(i)) rev_seg)
  in
  let delta = List.rev rev_atoms in
  s.stack <- (snap, delta) :: s.stack;
  delta

let pop_event s =
  match s.stack with
  | _ :: (_ :: _ as rest) -> s.stack <- rest
  | _ -> invalid_arg "Encode.pop_event: no event to pop"

let prefix_atoms s =
  List.concat (List.rev_map snd s.stack)

(* Complete the current prefix into the full violation query: trailing
   segment, stability pinning, cut-point-free observations, fairness and
   justice constraints, and the final condition — all emitted on a copy
   of the top snapshot, leaving the session untouched. *)
let finalize s =
  let env = s.env in
  let spec = env.spec in
  let ta = env.ta in
  (* Trailing segment: rules of the final context fire before the final
     state is inspected. *)
  let snap, rev_trailing = run_segment env (top s) in
  let rev_atoms = ref rev_trailing in
  let assert_atom a = rev_atoms := a :: !rev_atoms in
  let branches = ref [] in
  let ctx = snap.ctx in
  (* For a fair fixpoint, the still-locked guards must be false in the
     final configuration (a run in which one of them turns true is
     covered by the schema that unlocks it).  No pinning between events:
     two guards may become true at the same instant, so asserting
     "still-locked guards are false" at interior boundaries would
     exclude real runs (incompleteness). *)
  let pin () =
    List.iter
      (fun g ->
        if ctx land (1 lsl g) = 0 then
          assert_atom (guard_false_atom env snap (Universe.atom env.u g)))
      (Universe.ids env.u)
  in
  if spec.require_stable then pin ();
  (* Cut-point-free observations, on the complete run / final state. *)
  Array.iter
    (fun obs ->
      match Obs.classify obs with
      | Obs.Cut_point -> () (* handled by an Observe event *)
      | Obs.Monotone_end -> List.iter assert_atom (cond_atoms env snap obs)
      | Obs.Ever_entered ->
        List.iter
          (fun (a : Ta.Cond.atom) ->
            let expr =
              List.fold_left
                (fun acc (term, coef) ->
                  match term with
                  | Ta.Cond.Counter l ->
                    L.add acc (L.scale (Q.of_int coef) (get snap.entered l))
                  | Ta.Cond.Shared _ | Ta.Cond.Param _ -> assert false)
                (L.of_int a.const) a.terms
            in
            assert_atom (Smt.Atom.ge expr L.zero))
          obs)
    env.observations;
  if spec.require_stable then begin
    List.iter
      (fun (r : A.rule) ->
        let enabled =
          List.for_all
            (fun g -> ctx land (1 lsl g) <> 0)
            (Universe.guard_ids env.u r.guard)
        in
        if r.fairness = A.Fair && enabled && rule_allowed env r then
          assert_atom (Smt.Atom.eq (get snap.counters r.source) L.zero))
      ta.rules;
    (* Justice constraints: kappa[loc] = 0 or the unless-condition fails.
       The final context decides most unless-atoms (a locked guard it
       implies pins it false — clause satisfied; an unlocked guard that
       implies it pins it true — the disjunct vanishes).  Clauses that
       remain undecided are factored per location into a binary
       case-split handled by the checker. *)
    let undecided = Hashtbl.create 8 in
    List.iter
      (fun (j : A.justice) ->
        let statuses =
          List.map (fun a -> (a, Universe.justice_atom_status env.u ctx a)) j.unless
        in
        if not (List.exists (fun (_, s) -> s = `False) statuses) then begin
          match List.filter (fun (_, s) -> s = `Unknown) statuses with
          | [] -> assert_atom (Smt.Atom.eq (get snap.counters j.loc) L.zero)
          | unknown ->
            let prev =
              match Hashtbl.find_opt undecided j.loc with Some l -> l | None -> []
            in
            Hashtbl.replace undecided j.loc (List.map fst unknown :: prev)
        end)
      ta.justice;
    Hashtbl.iter
      (fun loc clauses ->
        (* (k=0 \/ D1) /\ ... /\ (k=0 \/ Dm)  <=>  k=0 \/ (D1 /\ ... /\ Dm),
           with each Di a disjunction of negated unless-atoms; expand the
           conjunction of disjunctions into alternative cubes. *)
        let cubes =
          List.fold_left
            (fun acc clause ->
              List.concat_map
                (fun cube ->
                  List.map (fun a -> guard_false_atom env snap a :: cube) clause)
                acc)
            [ [] ] clauses
        in
        let empty_cube = [ Smt.Atom.eq (get snap.counters loc) L.zero ] in
        branches := (empty_cube :: cubes) :: !branches)
      undecided
  end;
  List.iter assert_atom (cond_atoms env snap spec.final_cond);
  {
    vars = List.rev snap.vars_rev;
    n_slots = snap.n_slots;
    atoms = prefix_atoms s @ List.rev !rev_atoms;
    branches = !branches;
  }

let encode u spec (schema : Schema.t) =
  let s = start u spec in
  List.iter (fun ev -> ignore (push_event s ev)) schema;
  finalize s

(* ------------------------------------------------------------------ *)
(* Slot simulation: the per-schema slot count (= the n_slots the flat
   encoder would report) without building any linear expression.  This
   mirrors run_segment's skip rule exactly: a location's counter is the
   zero expression iff it is neither an unblocked initial location nor
   the target of an executed slot — acceleration factors are fresh
   variables, so a counter expression can never collapse back to the
   literal zero.  Locations are {!Universe.location_index} indices and
   the populated set is one byte per location, so a simulated segment
   is a scan of [moves] with no name lookups.  Used to account pruned
   subtrees with the slot counts [encode] reports (see Checker). *)

module Sim = struct
  type t = {
    moves : (int * int * int) array;
    ctx : int;
    pop : string;  (* byte [i] <> '\000' iff location [i]'s counter is non-zero *)
    slots : int;
  }

  let populated pop i = String.unsafe_get pop i <> '\000'

  let populate u locations =
    let pop = Bytes.make (Universe.n_locations u) '\000' in
    List.iter
      (fun l -> Option.iter (fun i -> Bytes.set pop i '\001') (Universe.location_index u l))
      locations;
    Bytes.to_string pop

  (* The empty prefix, without opening a session: only the unblocked
     initial locations are populated, matching [start]'s counters. *)
  let start u (spec : Ta.Spec.t) =
    let ta = Universe.automaton u in
    let pop =
      populate u
        (List.filter
           (fun l -> List.mem l ta.initial && not (List.mem l spec.never_enter))
           ta.locations)
    in
    { moves = allowed_moves u spec; ctx = 0; pop; slots = 0 }

  let of_session s =
    let snap = top s in
    let pop =
      populate s.env.u
        (List.filter_map
           (fun (l, e) -> if L.equal e L.zero then None else Some l)
           snap.counters)
    in
    { moves = s.env.moves; ctx = snap.ctx; pop; slots = snap.n_slots }

  (* One segment: the populated set after it and the slots it adds. *)
  let segment sim =
    let pop = ref sim.pop and n = ref 0 in
    Array.iter
      (fun (mask, source, target) ->
        if mask land lnot sim.ctx = 0 && populated !pop source then begin
          incr n;
          if not (populated !pop target) then begin
            let b = Bytes.of_string !pop in
            Bytes.set b target '\001';
            pop := Bytes.unsafe_to_string b
          end
        end)
      sim.moves;
    (!pop, !n)

  let push_event sim (ev : Schema.event) =
    let pop, n = segment sim in
    let ctx =
      match ev with Schema.Unlock g -> sim.ctx lor (1 lsl g) | Schema.Observe _ -> sim.ctx
    in
    { sim with ctx; pop; slots = sim.slots + n }

  let leaf_slots sim = sim.slots + snd (segment sim)

  (* Closed-form subtree totals.  Every leaf below a node pays the
     node's prefix slots, so a subtree's slot sum is
     [size * sim.slots + rel], where [rel] — the slots its leaves add
     past the node — depends only on the node's context, cut-point set
     and populated set: the memo key.  Sums saturate at [max_int]. *)
  type memo = { tree : Schema.tree; rel : (int * int * string, int) Hashtbl.t }

  let memo tree = { tree; rel = Hashtbl.create 64 }

  let sat_add a b = if a > max_int - b then max_int else a + b
  let sat_mul a b = if a <> 0 && b > max_int / a then max_int else a * b

  let rec rel m sim ~obs_mask =
    let key = (sim.ctx, obs_mask, sim.pop) in
    match Hashtbl.find_opt m.rel key with
    | Some r -> r
    | None ->
      let pop, seg = segment sim in
      let r =
        List.fold_left
          (fun acc (_, ctx, obs_mask) ->
            let child = { sim with ctx; pop; slots = 0 } in
            let n = Schema.size m.tree ~ctx ~obs_mask in
            sat_add acc (sat_add (sat_mul n seg) (rel m child ~obs_mask)))
          (if Schema.is_schema m.tree ~obs_mask then seg else 0)
          (Schema.children m.tree ~ctx:sim.ctx ~obs_mask)
      in
      Hashtbl.add m.rel key r;
      r

  let subtree_slots m sim ~obs_mask =
    let n = Schema.size m.tree ~ctx:sim.ctx ~obs_mask in
    sat_add (sat_mul n sim.slots) (rel m sim ~obs_mask)
end
