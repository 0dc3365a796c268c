exception Disagreement of string

type counters = {
  hits : int;
  misses : int;
  cross : int;
  w_interval : int;
  w_cooper : int;
  w_simplex : int;
}

let zero_counters =
  { hits = 0; misses = 0; cross = 0; w_interval = 0; w_cooper = 0; w_simplex = 0 }

let add_counters a b =
  {
    hits = a.hits + b.hits;
    misses = a.misses + b.misses;
    cross = a.cross + b.cross;
    w_interval = a.w_interval + b.w_interval;
    w_cooper = a.w_cooper + b.w_cooper;
    w_simplex = a.w_simplex + b.w_simplex;
  }

let sub_counters a b =
  {
    hits = a.hits - b.hits;
    misses = a.misses - b.misses;
    cross = a.cross - b.cross;
    w_interval = a.w_interval - b.w_interval;
    w_cooper = a.w_cooper - b.w_cooper;
    w_simplex = a.w_simplex - b.w_simplex;
  }

type t = { qcache : Qcache.t; check : bool }

let create ?(check = false) qcache = { qcache; check }

let cache t = t.qcache

(* ------------------------------------------------------------------- *)

type handle = {
  pf : t;
  local : Qcache.Local.handle;
  origin : string;
  mutable c : counters;
}

let handle ~origin pf =
  { pf; local = Qcache.Local.create pf.qcache; origin; c = zero_counters }

let counters h = h.c

let flush h = Qcache.Local.flush h.local

(* ------------------------------------------------------------------- *)

(* The certificate-less UNSAT guard compares canonical lists, so it
   uses the cheap comparator; the SAT literal-identity check compares
   raw query atoms, which are not canonical, so it keeps the general
   one. *)
let catoms_equal = List.equal Atom.equal_canonical
let atoms_equal = List.equal Atom.equal

(* [subset core catoms]: both strictly ascending under the canonical
   order, so one merge pass decides inclusion. *)
let rec subset core catoms =
  match (core, catoms) with
  | [], _ -> true
  | _ :: _, [] -> false
  | c :: core', q :: catoms' ->
    let d = Atom.compare_canonical c q in
    if d = 0 then subset core' catoms' else d > 0 && subset core catoms'

(* The atoms of the sorted index list [idx] (ascending, as
   [Certificate.core] returns it) picked from [atoms] in one pass. *)
let pick idx atoms =
  let rec go i idx atoms =
    match (idx, atoms) with
    | [], _ | _, [] -> []
    | j :: idx', a :: atoms' ->
      if i = j then a :: go (i + 1) idx' atoms' else go (i + 1) idx atoms'
  in
  go 0 idx atoms

(* Cross-check a certified refutation on the reference engine
   (uncounted steps: the check is diagnostic work, not verification
   effort). *)
let crosscheck ~max_steps ?stop atoms =
  match Lia.solve ~max_steps ?stop atoms with
  | Lia.Sat _ ->
    raise
      (Disagreement "certifying simplex refuted a conjunction the simplex satisfies")
  | Lia.Unsat | Lia.Unknown | Lia.Timeout -> ()

let solve ?steps ?(max_steps = 20_000) ?stop h atoms =
  let key, catoms = Qcache.fingerprint atoms in
  let hit verdict_result ~cross =
    h.c <-
      { h.c with hits = h.c.hits + 1; cross = (h.c.cross + if cross then 1 else 0) };
    verdict_result
  in
  let cached =
    match Qcache.Local.find h.local key with
    | None -> None
    | Some e -> (
      let cross = not (String.equal e.Qcache.origin h.origin) in
      match e.Qcache.verdict with
      | Qcache.Unsat_core { core; _ } ->
        (* The replayed certificate refutes [core]; a query containing
           it is refuted too, whatever the key collided with. *)
        if subset core catoms then Some (hit Lia.Unsat ~cross) else None
      | Qcache.Unsat_uncertified guard ->
        if catoms_equal guard catoms then Some (hit Lia.Unsat ~cross) else None
      | Qcache.Sat_model { atoms = la; model } ->
        (* Serve a SAT hit only for the literally identical query (same
           atoms, same order): the stored model is then byte-identical
           to what the simplex would recompute, so the witness is too.
           The model is still revalidated — a stale entry degrades to a
           miss. *)
        if atoms_equal la atoms && Lia.check_model atoms model then
          Some (hit (Lia.Sat model) ~cross)
        else None)
  in
  match cached with
  | Some r -> r
  | None -> (
    h.c <- { h.c with misses = h.c.misses + 1 };
    let remember verdict =
      h.c <- { h.c with w_simplex = h.c.w_simplex + 1 };
      Qcache.Local.add h.local key { Qcache.verdict; origin = h.origin }
    in
    (* The model lane is the call the uncached engine makes on the
       literal atoms, so SAT verdicts (and witnesses) are byte-identical.
       [certified_sat] is set when the certifying lane found a model: a
       refutation here is then a solver bug, surfaced even without
       [check]. *)
    let model_lane ~certified_sat =
      match Lia.solve ?steps ~max_steps ?stop atoms with
      | Lia.Sat model as r ->
        remember (Qcache.Sat_model { atoms; model });
        r
      | Lia.Unsat as r ->
        if certified_sat then
          raise
            (Disagreement
               "certifying simplex satisfied a conjunction the simplex refutes");
        remember (Qcache.Unsat_uncertified catoms);
        r
      | (Lia.Unknown | Lia.Timeout) as r -> r
    in
    (* Certifying lane first, on the canonical atoms.  Its certificate
       is restricted to the atoms it cites and replayed once, here,
       against that core, so every certificate in the table has passed
       the standalone checker and save writes it as is; one that fails
       the replay decides nothing. *)
    match Lia.solve_cert ?steps ~max_steps ?stop catoms with
    | Lia.Cert_unsat cert -> (
      let idx, cert = Certificate.restrict cert in
      let core = pick idx catoms in
      match Certcheck.validate core cert with
      | Ok () ->
        if h.pf.check then crosscheck ~max_steps ?stop atoms;
        remember (Qcache.Unsat_core { core; cert });
        Lia.Unsat
      | Error _ -> model_lane ~certified_sat:false)
    | Lia.Cert_timeout -> Lia.Timeout
    | Lia.Cert_sat _ -> model_lane ~certified_sat:true
    | Lia.Cert_unknown -> model_lane ~certified_sat:false)
