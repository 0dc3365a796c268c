(* The two-level discharge cache and the certifying discharge portfolio
   (Smt.Qcache / Smt.Portfolio / Holistic.Cachefile):

   - cached-vs-uncached equivalence: the sequential and the parallel
     engine, on every bundled bv property and on random DAG automata,
     must report the same outcome (witness included), schema count and
     slot total with a portfolio as without one;
   - warm-rerun determinism: a violated property re-verified against
     the populated cache reproduces the byte-identical witness, from
     cache hits;
   - persistence: save -> load roundtrips every certified entry, and a
     warm run from the loaded cache answers every leaf from it at zero
     solver steps;
   - the poisoned-cache trust model: corrupting a persisted entry's
     certificate or one of its core atoms makes the loader drop that
     entry (silently, counted), a file of the previous format version
     is refused as a whole, and the verdict of a run against such a
     cache is unchanged;
   - the core guard: an entry whose key matches a query but whose core
     is not among the query's atoms is a miss, decided by the solver;
   - certificates born at discharge: every UNSAT entry of a cold run
     holds the core and certificate of a fresh certifying proof
     restricted to its core; a refutation the certifying lane cannot
     certify is decided by the reference engine and never persisted. *)

module A = Ta.Automaton
module G = Ta.Guard
module P = Ta.Pexpr
module C = Ta.Cond
module S = Ta.Spec
module Ck = Holistic.Checker
module J = Jsonc

let limits ?(max_schemas = 100_000) ?(jobs = 1) ?(static = true) () =
  { Ck.default_limits with max_schemas; jobs; static }

let outcome_repr = function
  | Ck.Holds -> "holds"
  | Ck.Violated w -> Format.asprintf "violated@\n%a" Holistic.Witness.pp w
  | Ck.Aborted reason -> "aborted: " ^ reason
  | Ck.Partial { quarantined; reason } ->
    Format.asprintf "partial (%d quarantined): %s" (List.length quarantined) reason

let with_temp_file f =
  let path = Filename.temp_file "holistic_qcache" ".json" in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

(* ------------------------------------------------------------------ *)
(* Both engines on the bundled bv model.  One portfolio (with
   cross-checking on) is shared across every property and engine, so
   later runs also exercise warm hits and cross-property reuse.         *)

let test_bv_engines () =
  let portfolio = Smt.Portfolio.create ~check:true (Smt.Qcache.create ()) in
  let u = Holistic.Universe.build Models.Bv_ta.automaton in
  List.iter
    (fun spec ->
      List.iter
        (fun jobs ->
          let limits = limits ~jobs () in
          let label = Printf.sprintf "%s jobs=%d" spec.S.name jobs in
          let plain = Ck.verify_with_universe ~limits u spec in
          let cached = Ck.verify_with_universe ~limits ~portfolio u spec in
          Alcotest.(check string)
            (label ^ " outcome")
            (outcome_repr plain.Ck.outcome)
            (outcome_repr cached.Ck.outcome);
          Alcotest.(check int)
            (label ^ " schemas") plain.Ck.stats.schemas_checked
            cached.Ck.stats.schemas_checked;
          Alcotest.(check int)
            (label ^ " slots") plain.Ck.stats.slots_total
            cached.Ck.stats.slots_total)
        [ 1; 2 ])
    Models.Bv_ta.table2_specs

(* ------------------------------------------------------------------ *)
(* Warm-rerun witness determinism on the broken-resilience
   counterexample: the cold run caches the deciding SAT query's literal
   model, so the warm rerun reproduces the byte-identical witness —
   and actually from the cache.                                         *)

let test_warm_witness_determinism () =
  let portfolio = Smt.Portfolio.create (Smt.Qcache.create ()) in
  let ta = Models.Simplified_ta.automaton_broken_resilience in
  let spec = Models.Simplified_ta.inv1_0 in
  let plain = Ck.verify ~limits:(limits ()) ta spec in
  let cold = Ck.verify ~limits:(limits ()) ~portfolio ta spec in
  let warm = Ck.verify ~limits:(limits ()) ~portfolio ta spec in
  (match plain.Ck.outcome with
   | Ck.Violated _ -> ()
   | o -> Alcotest.failf "expected a counterexample, got %s" (outcome_repr o));
  Alcotest.(check string) "cold witness matches uncached"
    (outcome_repr plain.Ck.outcome) (outcome_repr cold.Ck.outcome);
  Alcotest.(check string) "warm witness is byte-identical"
    (outcome_repr plain.Ck.outcome) (outcome_repr warm.Ck.outcome);
  Alcotest.(check bool) "warm run actually hit the cache" true
    (warm.Ck.stats.cache.Smt.Portfolio.hits > 0)

(* ------------------------------------------------------------------ *)
(* Persistence roundtrip and the poisoned cache.  Every leaf the engine
   discharges goes through the cache, and reachability pruning costs no
   solver steps, so a fully-warm run needs no solver steps at all.      *)

let set_field name value = function
  | J.Obj fields ->
    J.Obj (List.map (fun (k, v) -> if k = name then (k, value) else (k, v)) fields)
  | j -> j

let set_cert = set_field "cert"

let cache_doc ~version entries =
  J.to_string (J.Obj [ ("version", J.Int version); ("entries", J.List entries) ]) ^ "\n"

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let write_file path contents =
  let oc = open_out_bin path in
  output_string oc contents;
  close_out oc

let test_persistence_and_poison () =
  let cache = Smt.Qcache.create () in
  let portfolio = Smt.Portfolio.create cache in
  let u = Holistic.Universe.build Models.Bv_ta.automaton in
  (* BV-Obl0 with static discharge off: its schemas are then genuine
     leaf discharges, so the cold run populates one cache entry per
     schema (BV-Just0 would be fully statically refuted and leave the
     cache empty). *)
  let spec = List.nth Models.Bv_ta.table2_specs 1 in
  let limits = limits ~static:false () in
  let plain = Ck.verify_with_universe ~limits u spec in
  let _cold = Ck.verify_with_universe ~limits ~portfolio u spec in
  with_temp_file (fun path ->
      let sr = Holistic.Cachefile.save ~path cache in
      Alcotest.(check bool) "entries written" true (sr.Holistic.Cachefile.written >= 3);
      Alcotest.(check int) "every entry certified" 0 sr.Holistic.Cachefile.uncertified;
      (* Clean roundtrip: everything loads, nothing is dropped, and a
         warm run from the loaded cache needs zero solver steps. *)
      let lr = Holistic.Cachefile.load ~path in
      Alcotest.(check int) "all entries loaded" sr.Holistic.Cachefile.written
        lr.Holistic.Cachefile.loaded;
      Alcotest.(check int) "no entries dropped" 0 lr.Holistic.Cachefile.dropped;
      let warm =
        Ck.verify_with_universe ~limits
          ~portfolio:(Smt.Portfolio.create lr.Holistic.Cachefile.cache)
          u spec
      in
      Alcotest.(check string) "warm verdict" (outcome_repr plain.Ck.outcome)
        (outcome_repr warm.Ck.outcome);
      Alcotest.(check int) "warm run has no misses" 0
        warm.Ck.stats.cache.Smt.Portfolio.misses;
      Alcotest.(check int) "warm run needs no solver steps" 0
        warm.Ck.stats.solver_steps;
      (* Poison two persisted certificates: one nulled out, one replaced
         with bytes that do not parse as a certificate.  Both entries
         must be dropped by load-time validation; the rest still load,
         and the verdict of a run against the poisoned cache is
         unchanged. *)
      let doc = J.of_string (String.trim (read_file path)) in
      let entries = J.to_list (J.member "entries" doc) in
      let poisoned =
        List.mapi
          (fun i ej ->
            if i = 0 then set_cert J.Null ej
            else if i = 1 then set_cert (J.Str "corrupted-certificate") ej
            else ej)
          entries
      in
      write_file path (cache_doc ~version:2 poisoned);
      let lr' = Holistic.Cachefile.load ~path in
      Alcotest.(check int) "poisoned entries dropped" 2 lr'.Holistic.Cachefile.dropped;
      Alcotest.(check int) "intact entries still load"
        (sr.Holistic.Cachefile.written - 2)
        lr'.Holistic.Cachefile.loaded;
      let after =
        Ck.verify_with_universe ~limits
          ~portfolio:(Smt.Portfolio.create lr'.Holistic.Cachefile.cache)
          u spec
      in
      Alcotest.(check string) "verdict unchanged by poisoning"
        (outcome_repr plain.Ck.outcome)
        (outcome_repr after.Ck.outcome);
      Alcotest.(check bool) "dropped entries degrade to misses" true
        (after.Ck.stats.cache.Smt.Portfolio.misses > 0))

(* ------------------------------------------------------------------ *)
(* Certificates born at discharge.  The portfolio's certifying lane
   caches each refutation as the core its certificate cites plus the
   certificate renumbered onto that core, and save writes it as is; it
   must be exactly what a fresh certifying proof of the query, restricted
   to its core, produces, down to the file's bytes.  An UNSAT entry
   without a certificate is dropped at save, not proved again.         *)

let bv_universe = lazy (Holistic.Universe.build Models.Bv_ta.automaton)

let cold_bv_cache () =
  let cache = Smt.Qcache.create () in
  let portfolio = Smt.Portfolio.create cache in
  let u = Lazy.force bv_universe in
  List.iter
    (fun spec ->
      ignore (Ck.verify_with_universe ~limits:(limits ~static:false ()) ~portfolio u spec))
    Models.Bv_ta.table2_specs;
  cache

(* Every leaf conjunction the engine can discharge on the bv model, by
   canonical key: each schema's conjunctive part and each path through
   its justice case split, as {!Flat.decide} builds them. *)
let bv_leaf_queries () =
  let u = Lazy.force bv_universe in
  let queries = Hashtbl.create 256 in
  let add atoms =
    let key, catoms = Smt.Qcache.fingerprint atoms in
    Hashtbl.replace queries key catoms
  in
  List.iter
    (fun spec ->
      ignore
        (Holistic.Schema.enumerate u spec ~on_schema:(fun schema ->
             let e = Holistic.Encode.encode u spec schema in
             add e.Holistic.Encode.atoms;
             let rec paths atoms = function
               | [] -> add atoms
               | alternatives :: rest ->
                 List.iter (fun cube -> paths (cube @ atoms) rest) alternatives
             in
             paths e.Holistic.Encode.atoms e.Holistic.Encode.branches;
             true)))
    Models.Bv_ta.table2_specs;
  queries

(* The certified UNSAT entries of [cache]: key, core and certificate. *)
let unsat_entries cache =
  Smt.Qcache.fold
    (fun key e acc ->
      match e.Smt.Qcache.verdict with
      | Smt.Qcache.Unsat_core { core; cert } -> (key, core, cert) :: acc
      | Smt.Qcache.Unsat_uncertified _ ->
        Alcotest.failf "UNSAT entry %s carries no certificate" key
      | Smt.Qcache.Sat_model _ -> acc)
    cache []

(* A copy of [cache] with every UNSAT entry's verdict rewritten by [f]. *)
let map_unsat f cache =
  let copy = Smt.Qcache.create () in
  Smt.Qcache.fold
    (fun key e () ->
      let e =
        match e.Smt.Qcache.verdict with
        | Smt.Qcache.Unsat_core _ | Smt.Qcache.Unsat_uncertified _ ->
          { e with Smt.Qcache.verdict = f key e.Smt.Qcache.verdict }
        | Smt.Qcache.Sat_model _ -> e
      in
      Smt.Qcache.add copy key e)
    cache ();
  copy

let cert_json c = J.to_string (Smt.Certificate.to_json c)
let atoms_json atoms =
  String.concat "\n" (List.map (fun a -> J.to_string (Smt.Certificate.atom_to_json a)) atoms)

let test_born_certified () =
  let cache = cold_bv_cache () in
  let unsat = unsat_entries cache in
  Alcotest.(check bool) "cold run cached UNSAT entries" true (List.length unsat >= 3);
  List.iter
    (fun (key, core, cert) ->
      let e = { Smt.Qcache.verdict = Unsat_core { core; cert }; origin = "" } in
      match Smt.Qcache.validate key e with
      | Ok () -> ()
      | Error msg -> Alcotest.failf "entry %s does not replay: %s" key msg)
    unsat;
  (* The core and certificate a discharge keeps must be the ones a fresh
     proof of the whole query on the certifying engine gives, once
     restricted to the atoms it cites. *)
  let queries = bv_leaf_queries () in
  let fresh =
    map_unsat
      (fun key _ ->
        let catoms =
          match Hashtbl.find_opt queries key with
          | Some catoms -> catoms
          | None -> Alcotest.failf "entry %s is no leaf query of the bv model" key
        in
        match Smt.Lia.solve_cert ~max_steps:50_000 catoms with
        | Smt.Lia.Cert_unsat c ->
          let idx, cert = Smt.Certificate.restrict c in
          Smt.Qcache.Unsat_core { core = List.map (List.nth catoms) idx; cert }
        | _ -> Alcotest.failf "entry %s not re-proved" key)
      cache
  in
  List.iter
    (fun (key, core, cert) ->
      match (Option.get (Smt.Qcache.find fresh key)).Smt.Qcache.verdict with
      | Smt.Qcache.Unsat_core { core = core'; cert = cert' } ->
        Alcotest.(check string) (key ^ " core") (atoms_json core') (atoms_json core);
        Alcotest.(check string) (key ^ " certificate") (cert_json cert') (cert_json cert)
      | _ -> Alcotest.failf "entry %s lost its certificate" key)
    unsat;
  with_temp_file (fun born_path ->
      with_temp_file (fun fresh_path ->
          let born = Holistic.Cachefile.save ~path:born_path cache in
          let reproved = Holistic.Cachefile.save ~path:fresh_path fresh in
          Alcotest.(check int) "born: nothing uncertified" 0
            born.Holistic.Cachefile.uncertified;
          Alcotest.(check int) "fresh: nothing uncertified" 0
            reproved.Holistic.Cachefile.uncertified;
          Alcotest.(check string) "saved files are byte-identical"
            (read_file fresh_path) (read_file born_path)))

(* [x = 2y /\ x = 2z + 1] has no integer solution (x even and odd).
   Its relaxation is feasible, so the certifying engine must branch, and
   one simplex step is not enough; the reference engine substitutes [x]
   away and refutes [2y = 2z + 1] by divisibility, with no simplex step. *)
let parity_query =
  let module L = Smt.Linexpr in
  let two v = L.scale (Numbers.Rational.of_int 2) (L.var v) in
  [
    Smt.Atom.eq (L.var 0) (two 1);
    Smt.Atom.eq (L.var 0) (L.add_const Numbers.Rational.one (two 2));
  ]

let test_uncertified_dropped_at_save () =
  Alcotest.(check bool) "certifying engine runs dry in one step" true
    (Smt.Lia.solve_cert ~max_steps:1 parity_query = Smt.Lia.Cert_unknown);
  let cache = Smt.Qcache.create () in
  let h = Smt.Portfolio.handle ~origin:"parity" (Smt.Portfolio.create cache) in
  Alcotest.(check bool) "reference engine refutes it" true
    (Smt.Portfolio.solve ~max_steps:1 h parity_query = Smt.Lia.Unsat);
  Smt.Portfolio.flush h;
  let key, _ = Smt.Qcache.fingerprint parity_query in
  (match Smt.Qcache.find cache key with
   | Some { Smt.Qcache.verdict = Smt.Qcache.Unsat_uncertified _; _ } -> ()
   | _ -> Alcotest.fail "refutation not cached without a certificate");
  Alcotest.(check bool) "served as a hit in this process" true
    (Smt.Portfolio.solve ~max_steps:1 h parity_query = Smt.Lia.Unsat
    && (Smt.Portfolio.counters h).Smt.Portfolio.hits = 1);
  (* One certificate-less entry among a cold run's certified ones: save
     drops it without proving it (the certifying engine would, given
     its default budget) and writes the rest. *)
  let cold = cold_bv_cache () in
  let victim, _, _ = List.hd (unsat_entries cold) in
  let stripped =
    map_unsat
      (fun key v -> if key = victim then Smt.Qcache.Unsat_uncertified [] else v)
      cold
  in
  with_temp_file (fun path ->
      let sr = Holistic.Cachefile.save ~path stripped in
      Alcotest.(check int) "certificate-less entry counted uncertified" 1
        sr.Holistic.Cachefile.uncertified;
      Alcotest.(check int) "every other entry written"
        (Smt.Qcache.length cold - 1) sr.Holistic.Cachefile.written;
      let lr = Holistic.Cachefile.load ~path in
      Alcotest.(check int) "file holds no rejected certificate" 0
        lr.Holistic.Cachefile.dropped;
      Alcotest.(check bool) "certificate-less entry not persisted" true
        (Smt.Qcache.find lr.Holistic.Cachefile.cache victim = None))

(* ------------------------------------------------------------------ *)
(* The core guard.  A certified entry is served only when its key
   matches and every core atom is among the query's canonical atoms.
   Forge an entry under the key of the satisfiable [1 <= x <= 5] whose
   core is the refuted [x <= 0 /\ x >= 1]: the entry is
   self-evidencing (its certificate replays), but [x <= 0] is not in
   the query, so the lookup is a miss and the solver finds the model. *)

let test_forged_core_is_a_miss () =
  let module L = Smt.Linexpr in
  let x = L.var 0 and k n = L.of_int n in
  let query = [ Smt.Atom.le x (k 5); Smt.Atom.ge x (k 1) ] in
  let key, catoms = Smt.Qcache.fingerprint query in
  let _, core = Smt.Qcache.fingerprint [ Smt.Atom.le x (k 0); Smt.Atom.ge x (k 1) ] in
  let cert =
    match Smt.Lia.solve_cert core with
    | Smt.Lia.Cert_unsat c -> c
    | _ -> Alcotest.fail "core not refuted"
  in
  let idx, cert = Smt.Certificate.restrict cert in
  Alcotest.(check (list int)) "the certificate cites the whole core" [ 0; 1 ] idx;
  let forged = { Smt.Qcache.verdict = Unsat_core { core; cert }; origin = "forged" } in
  Alcotest.(check bool) "forged entry is self-evidencing" true
    (Smt.Qcache.validate key forged = Ok ());
  (* A repeated atom appended to the core leaves the certificate
     replayable, but the core must stay deduplicated; a reordered core
     is rejected too. *)
  List.iter
    (fun (label, core) ->
      Alcotest.(check bool) label true
        (Result.is_error
           (Smt.Qcache.validate key
              { forged with Smt.Qcache.verdict = Unsat_core { core; cert } })))
    [ ("duplicated core atom rejected", core @ [ List.nth core 1 ]);
      ("unsorted core rejected", List.rev core) ];
  Alcotest.(check bool) "a core atom is missing from the query" false
    (List.for_all (fun a -> List.exists (Smt.Atom.equal a) catoms) core);
  let cache = Smt.Qcache.create () in
  Smt.Qcache.add cache key forged;
  let h = Smt.Portfolio.handle ~origin:"guard" (Smt.Portfolio.create cache) in
  (match Smt.Portfolio.solve h query with
   | Smt.Lia.Sat m ->
     Alcotest.(check bool) "solver's model satisfies the query" true
       (Smt.Lia.check_model query m)
   | _ -> Alcotest.fail "forged core answered the query");
  let c = Smt.Portfolio.counters h in
  Alcotest.(check (pair int int)) "one miss, no hit" (1, 0)
    (c.Smt.Portfolio.misses, c.Smt.Portfolio.hits)

(* A core atom changed on disk, and a file of the previous format.  One
   UNSAT entry of the cold run's file gets a core atom's constant moved
   by one, chosen so that the core stays canonical and sorted: only the
   certificate replay can tell, and load drops that entry alone.  The
   same entries under version 1 are refused as a whole.  Either way the
   verdict is unchanged.                                                *)

let canonical_sorted core =
  List.for_all (fun a -> Smt.Atom.equal_canonical (Smt.Atom.canonical a) a) core
  &&
  let rec sorted = function
    | a :: (b :: _ as rest) -> Smt.Atom.compare_canonical a b < 0 && sorted rest
    | _ -> true
  in
  sorted core

(* The first entry and core atom whose shifted constant keeps the core
   canonical and sorted but no longer replays: (key, tampered JSON). *)
let tamper_core entries =
  let shift (a : Smt.Atom.t) =
    { a with Smt.Atom.expr = Smt.Linexpr.add_const Numbers.Rational.one a.Smt.Atom.expr }
  in
  List.find_map
    (fun ej ->
      match Smt.Qcache.entry_of_json ej with
      | key, ({ Smt.Qcache.verdict = Unsat_core { core; cert }; _ } as e) ->
        List.find_map
          (fun i ->
            let core = List.mapi (fun j a -> if i = j then shift a else a) core in
            let e = { e with Smt.Qcache.verdict = Unsat_core { core; cert } } in
            if canonical_sorted core && Result.is_error (Smt.Qcache.validate key e) then
              Some (key, Smt.Qcache.entry_to_json key e)
            else None)
          (List.init (List.length core) Fun.id)
      | _ -> None)
    entries

let test_tampered_core_and_old_version () =
  let cache = Smt.Qcache.create () in
  let portfolio = Smt.Portfolio.create cache in
  let u = Lazy.force bv_universe in
  let spec = List.nth Models.Bv_ta.table2_specs 1 in
  let limits = limits ~static:false () in
  let plain = Ck.verify_with_universe ~limits u spec in
  ignore (Ck.verify_with_universe ~limits ~portfolio u spec);
  let rerun (lr : Holistic.Cachefile.load_report) =
    Ck.verify_with_universe ~limits
      ~portfolio:(Smt.Portfolio.create lr.Holistic.Cachefile.cache)
      u spec
  in
  with_temp_file (fun path ->
      let sr = Holistic.Cachefile.save ~path cache in
      let doc = J.of_string (String.trim (read_file path)) in
      let entries = J.to_list (J.member "entries" doc) in
      let victim, forged =
        match tamper_core entries with
        | Some v -> v
        | None -> Alcotest.fail "no core atom whose change the replay catches"
      in
      let tampered =
        List.map
          (fun ej -> if J.to_str (J.member "key" ej) = victim then forged else ej)
          entries
      in
      write_file path (cache_doc ~version:2 tampered);
      let lr = Holistic.Cachefile.load ~path in
      Alcotest.(check int) "tampered entry dropped" 1 lr.Holistic.Cachefile.dropped;
      Alcotest.(check int) "other entries load"
        (sr.Holistic.Cachefile.written - 1) lr.Holistic.Cachefile.loaded;
      Alcotest.(check bool) "tampered entry not in the cache" true
        (Smt.Qcache.find lr.Holistic.Cachefile.cache victim = None);
      let after = rerun lr in
      Alcotest.(check string) "verdict unchanged by the tampered core"
        (outcome_repr plain.Ck.outcome) (outcome_repr after.Ck.outcome);
      Alcotest.(check int) "the dropped entry is one miss" 1
        after.Ck.stats.cache.Smt.Portfolio.misses;
      write_file path (cache_doc ~version:1 entries);
      let old = Holistic.Cachefile.load ~path in
      Alcotest.(check (pair int int)) "version 1 refused as a whole" (0, 1)
        (old.Holistic.Cachefile.loaded, old.Holistic.Cachefile.dropped);
      let cold = rerun old in
      Alcotest.(check string) "verdict of the cold start equals the uncached one"
        (outcome_repr plain.Ck.outcome) (outcome_repr cold.Ck.outcome);
      Alcotest.(check int) "nothing served from the refused file" 0
        cold.Ck.stats.cache.Smt.Portfolio.hits)

(* ------------------------------------------------------------------ *)
(* Random DAG automata (the generator of test_incremental/test_absint):
   cached cold and warm runs agree with the uncached engine — outcome,
   witness, schema count, slot total — sequentially and in parallel.    *)

let locations = [ "L0"; "L1"; "L2"; "L3" ]

let guard_pool =
  [
    G.tt;
    G.ge1 "x" (P.const 1);
    G.ge1 "x" (P.const 2);
    G.ge1 "y" (P.const 1);
    G.ge [ ("x", 1); ("y", 1) ] (P.const 2);
  ]

let update_pool = [ []; [ ("x", 1) ]; [ ("y", 1) ] ]

type rule_desc = { src : int; dst : int; guard : int; update : int; fair : bool }

let arb_ta =
  let open QCheck in
  let edges =
    List.concat_map
      (fun i -> List.filter_map (fun j -> if j > i then Some (i, j) else None) [ 0; 1; 2; 3 ])
      [ 0; 1; 2 ]
  in
  let arb_desc (src, dst) =
    map
      (fun (present, guard, update, fair) ->
        if present then Some { src; dst; guard; update; fair } else None)
      (tup4 bool
         (int_range 0 (List.length guard_pool - 1))
         (int_range 0 (List.length update_pool - 1))
         bool)
  in
  let rec sequence = function
    | [] -> Gen.return []
    | g :: gs -> Gen.map2 (fun x xs -> x :: xs) g (sequence gs)
  in
  let gens = List.map (fun e -> (arb_desc e).gen) edges in
  make
    ~print:(fun descs ->
      String.concat ";"
        (List.map
           (function
             | None -> "-"
             | Some d ->
               Printf.sprintf "%d->%d g%d u%d %s" d.src d.dst d.guard d.update
                 (if d.fair then "F" else "U"))
           descs))
    (sequence gens)

let build_ta descs =
  let rules =
    List.concat_map
      (function
        | None -> []
        | Some d ->
          [
            A.rule
              (Printf.sprintf "r%d%d" d.src d.dst)
              ~source:(List.nth locations d.src) ~target:(List.nth locations d.dst)
              ~guard:(List.nth guard_pool d.guard)
              ~update:(List.nth update_pool d.update)
              ~fairness:(if d.fair then A.Fair else A.Unfair);
          ])
      descs
  in
  A.make ~name:"random" ~params:[ "n" ] ~shared:[ "x"; "y" ] ~locations
    ~initial:[ "L0"; "L1" ]
    ~resilience:[ P.of_terms [ ("n", 1) ] (-1) ]
    ~population:(P.param "n") ~rules ()

let reach_spec =
  S.invariant ~name:"reach-L3" ~ltl:"<>(k[L3] != 0)"
    ~bad:[ ("L3 reached", C.some_nonempty [ "L3" ]) ]
    ()

let cached_agrees descs =
  let ta = build_ta descs in
  let portfolio = Smt.Portfolio.create ~check:true (Smt.Qcache.create ()) in
  List.for_all
    (fun jobs ->
      let run ?portfolio () =
        Ck.verify ~limits:(limits ~max_schemas:5_000 ~jobs ()) ?portfolio ta reach_spec
      in
      let plain = run () in
      (match plain.Ck.outcome with
       | Ck.Aborted _ | Ck.Partial _ -> QCheck.assume_fail ()
       | _ -> ());
      let cold = run ~portfolio () in
      let warm = run ~portfolio () in
      outcome_repr plain.Ck.outcome = outcome_repr cold.Ck.outcome
      && outcome_repr plain.Ck.outcome = outcome_repr warm.Ck.outcome
      && plain.Ck.stats.schemas_checked = cold.Ck.stats.schemas_checked
      && plain.Ck.stats.schemas_checked = warm.Ck.stats.schemas_checked
      && plain.Ck.stats.slots_total = cold.Ck.stats.slots_total
      && plain.Ck.stats.slots_total = warm.Ck.stats.slots_total)
    [ 1; 2 ]

let () =
  Alcotest.run "qcache"
    [
      ( "engines",
        [
          Alcotest.test_case "bv: both engines, cached vs uncached" `Quick
            test_bv_engines;
          Alcotest.test_case "warm witness determinism" `Quick
            test_warm_witness_determinism;
        ] );
      ( "persistence",
        [
          Alcotest.test_case "roundtrip and poisoned cache" `Quick
            test_persistence_and_poison;
          Alcotest.test_case "discharge certificates equal fresh proofs" `Quick
            test_born_certified;
          Alcotest.test_case "certificate-less entry dropped at save" `Quick
            test_uncertified_dropped_at_save;
          Alcotest.test_case "forged core is a miss" `Quick test_forged_core_is_a_miss;
          Alcotest.test_case "tampered core atom and version-1 file" `Quick
            test_tampered_core_and_old_version;
        ] );
      ( "random-ta",
        [
          QCheck_alcotest.to_alcotest
            (QCheck.Test.make ~name:"cached engines agree on random TAs" ~count:30
               arb_ta cached_agrees);
        ] );
    ]
