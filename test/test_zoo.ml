(* The model-zoo battery (Models.Zoo): every registered entry must lint
   clean; verify to its expected verdict with the outcome, witness,
   schema count and slot total of the one-query-per-schema oracle
   (test/flat.ml), in no more solver steps; give the same at two worker
   domains; behave identically with the discharge cache on and off; and
   every seeded mutant must be caught -- by a lint error of the declared
   code or by a counterexample witness on the declared spec.
   Registering a model in the zoo without this battery passing is
   impossible. *)

module A = Ta.Automaton
module S = Ta.Spec
module Z = Models.Zoo
module Ck = Holistic.Checker
module An = Analysis

let limits ?(jobs = 1) () = { Ck.default_limits with Ck.max_schemas = 100_000; jobs }

let outcome_repr = function
  | Ck.Holds -> "holds"
  | Ck.Violated w -> Format.asprintf "violated@\n%a" Holistic.Witness.pp w
  | Ck.Aborted reason -> "aborted: " ^ reason
  | Ck.Partial { quarantined; reason } ->
    Format.asprintf "partial (%d quarantined): %s" (List.length quarantined) reason

let codes ds = List.sort_uniq compare (List.map (fun (d : An.diagnostic) -> d.code) ds)

(* ------------------------------------------------------------------ *)
(* Registry sanity: the battery's own preconditions.                    *)

let test_registry () =
  Alcotest.(check bool) "at least 6 entries" true (List.length Z.entries >= 6);
  let keys = Z.keys in
  Alcotest.(check int) "keys distinct" (List.length keys)
    (List.length (List.sort_uniq compare keys));
  List.iter
    (fun k ->
      Alcotest.(check bool) ("new model " ^ k ^ " registered") true
        (Z.find k <> None))
    [ "bracha"; "phase-king"; "strb"; "frb"; "benor"; "dbft-rta" ];
  Alcotest.(check bool) "at least 4 mutants" true (List.length Z.all_mutants >= 4);
  Alcotest.(check bool) "a fuzzable entry exists" true
    (List.exists (fun (e : Z.entry) -> e.Z.fuzzable) Z.entries);
  List.iter
    (fun (e : Z.entry) ->
      Alcotest.(check bool)
        (e.Z.key ^ " has specs") true (e.Z.specs <> []))
    Z.entries

(* ------------------------------------------------------------------ *)
(* Lint: every entry is accepted (no error-level diagnostic), exit code
   0 for `holistic lint`.                                               *)

let test_lint_clean () =
  List.iter
    (fun (e : Z.entry) ->
      let diags =
        An.run ~assume:e.Z.justice_assumption ~specs:(List.map fst e.Z.specs)
          e.Z.automaton
      in
      Alcotest.(check (list string))
        (e.Z.key ^ " lint errors") []
        (codes (An.errors diags)))
    Z.entries

(* ------------------------------------------------------------------ *)
(* Verdicts.  The sequential run of each entry's specs is computed once
   and shared by the verdict and cache checks.                          *)

let references =
  List.map
    (fun (e : Z.entry) ->
      ( e,
        lazy
          (let u = Holistic.Universe.build e.Z.automaton in
           ( u,
             List.map
               (fun ((spec : S.t), expected) ->
                 (spec, expected, Ck.verify_with_universe ~limits:(limits ()) u spec))
               e.Z.specs )) ))
    Z.entries

(* The expected outcome on the sequential engine; the oracle's outcome
   (witness included), schema count and slot total in no more solver
   steps; and the same outcome, schema count and slot total at jobs 2. *)
let test_entry (e : Z.entry) reference () =
  let u, runs = Lazy.force reference in
  List.iter
    (fun ((spec : S.t), expected, (r : Ck.result)) ->
      let label = e.Z.key ^ "/" ^ spec.S.name in
      (match (expected, r.Ck.outcome) with
      | Z.Holds, Ck.Holds -> ()
      | Z.Violated, Ck.Violated w ->
        Alcotest.(check bool)
          (label ^ " witness has steps")
          true (w.Holistic.Witness.steps <> [])
      | _, got ->
        Alcotest.failf "%s: expected %s, got %s" label
          (Z.verdict_to_string expected) (outcome_repr got));
      let oracle = Flat.verify ~max_schemas:(limits ()).Ck.max_schemas u spec in
      let olabel = label ^ " vs oracle" in
      Alcotest.(check string)
        (olabel ^ " outcome/witness")
        (outcome_repr oracle.Flat.outcome)
        (outcome_repr r.Ck.outcome);
      Alcotest.(check int)
        (olabel ^ " schemas") oracle.Flat.schemas r.Ck.stats.Ck.schemas_checked;
      Alcotest.(check int)
        (olabel ^ " slots") oracle.Flat.slots r.Ck.stats.Ck.slots_total;
      Alcotest.(check bool)
        (olabel ^ " steps no worse")
        true
        (r.Ck.stats.Ck.solver_steps <= oracle.Flat.steps);
      let par = Ck.verify_with_universe ~limits:(limits ~jobs:2 ()) u spec in
      let plabel = label ^ " jobs=2" in
      Alcotest.(check string)
        (plabel ^ " outcome/witness")
        (outcome_repr r.Ck.outcome)
        (outcome_repr par.Ck.outcome);
      Alcotest.(check int)
        (plabel ^ " schemas") r.Ck.stats.Ck.schemas_checked
        par.Ck.stats.Ck.schemas_checked;
      Alcotest.(check int)
        (plabel ^ " slots") r.Ck.stats.Ck.slots_total par.Ck.stats.Ck.slots_total)
    runs

(* ------------------------------------------------------------------ *)
(* Discharge cache on vs off: same verdicts, witnesses, schema counts.  *)

let test_cache_on_off () =
  let portfolio = Smt.Portfolio.create ~check:true (Smt.Qcache.create ()) in
  List.iter
    (fun ((e : Z.entry), reference) ->
      let u, runs = Lazy.force reference in
      List.iter
        (fun ((spec : S.t), _, (plain : Ck.result)) ->
          let label = e.Z.key ^ "/" ^ spec.S.name in
          let cached =
            Ck.verify_with_universe ~limits:(limits ()) ~portfolio u spec
          in
          Alcotest.(check string)
            (label ^ " cached outcome")
            (outcome_repr plain.Ck.outcome)
            (outcome_repr cached.Ck.outcome);
          Alcotest.(check int)
            (label ^ " cached schemas") plain.Ck.stats.Ck.schemas_checked
            cached.Ck.stats.Ck.schemas_checked)
        runs)
    references

(* ------------------------------------------------------------------ *)
(* Mutants: each one is caught the way its registry entry declares.     *)

let test_mutants_caught () =
  List.iter
    (fun ((e : Z.entry), (m : Z.mutant)) ->
      match m.Z.rejection with
      | Z.Lint code ->
        let diags = An.run ~specs:(List.map fst e.Z.specs) m.Z.mutant_automaton in
        let errs = An.errors diags in
        Alcotest.(check bool)
          (m.Z.mutant_key ^ " rejected by lint " ^ code)
          true
          (List.exists (fun (d : An.diagnostic) -> d.An.code = code) errs)
      | Z.Checker spec ->
        let r = Ck.verify ~limits:(limits ()) m.Z.mutant_automaton spec in
        (match r.Ck.outcome with
        | Ck.Violated w ->
          Alcotest.(check bool)
            (m.Z.mutant_key ^ " witness has steps")
            true (w.Holistic.Witness.steps <> [])
        | got ->
          Alcotest.failf "%s: expected a counterexample witness, got %s"
            m.Z.mutant_key (outcome_repr got))
      | Z.Fuzz { spec; n; t; f; value; sched_seed } ->
        (* The divergence pair: the checker must be blind (the mutant
           automaton dropped the adversary, so the spec holds on it)... *)
        let r = Ck.verify ~limits:(limits ()) m.Z.mutant_automaton spec in
        Alcotest.(check string)
          (m.Z.mutant_key ^ " is checker-invisible (" ^ spec.S.name ^ " holds)")
          "holds" (outcome_repr r.Ck.outcome);
        (* ...while the simulated network at the declared concrete
           parameters exhibits a real violating run. *)
        (match Fuzz.Crossval.realize ~n ~t ~f ~value ~sched_seed with
        | Some trace ->
          Alcotest.(check bool)
            (m.Z.mutant_key ^ " fuzz counterexample has events")
            true
            (trace.Fuzz.Trace.events <> [])
        | None ->
          Alcotest.failf "%s: fuzz oracle found no violation at n=%d t=%d f=%d"
            m.Z.mutant_key n t f))
    Z.all_mutants

(* The healthy parents are not caught: the mutated spec holds on the
   original automaton, so the mutants fail for the seeded reason, not
   because the property was unverifiable to begin with. *)
let test_mutant_parents_healthy () =
  List.iter
    (fun ((e : Z.entry), (m : Z.mutant)) ->
      match m.Z.rejection with
      | Z.Lint code ->
        let diags = An.run ~assume:e.Z.justice_assumption e.Z.automaton in
        Alcotest.(check bool)
          (e.Z.key ^ " parent free of " ^ code)
          true
          (not (List.exists (fun (d : An.diagnostic) -> d.An.code = code) diags))
      | Z.Checker spec ->
        let r = Ck.verify ~limits:(limits ()) e.Z.automaton spec in
        Alcotest.(check string)
          (e.Z.key ^ " parent satisfies " ^ spec.S.name)
          "holds" (outcome_repr r.Ck.outcome)
      | Z.Fuzz { spec; _ } ->
        (* The sound model (with the -f discount, under f <= t) proves
           the same property: the blind spot is the seeded edit, not a
           property that was unverifiable to begin with. *)
        let r = Ck.verify ~limits:(limits ()) Models.Bv_ta.automaton spec in
        Alcotest.(check string)
          ("bv parent satisfies " ^ spec.S.name)
          "holds" (outcome_repr r.Ck.outcome))
    Z.all_mutants

(* ------------------------------------------------------------------ *)
(* Fuzz cross-validation for entries with a simnet executable model.    *)

let test_fuzzable_entries () =
  List.iter
    (fun (e : Z.entry) ->
      if e.Z.fuzzable then begin
        let r =
          Fuzz.Campaign.campaign ~seed:42 ~runs:15 ~profile:Fuzz.Campaign.Conforming ()
        in
        Alcotest.(check int)
          (e.Z.key ^ " conforming fuzz violations") 0
          (List.length r.Fuzz.Campaign.violations);
        Alcotest.(check (list string))
          (e.Z.key ^ " fuzz divergences") []
          (List.map
             (fun (i, _) -> string_of_int i)
             r.Fuzz.Campaign.divergences)
      end)
    Z.entries

let () =
  Alcotest.run "zoo"
    [
      ("registry", [ Alcotest.test_case "sanity" `Quick test_registry ]);
      ("lint", [ Alcotest.test_case "all entries clean" `Quick test_lint_clean ]);
      ( "verify",
        List.map
          (fun ((e : Z.entry), reference) ->
            Alcotest.test_case
              (e.Z.key ^ ": expected verdicts, oracle, jobs=2")
              `Quick (test_entry e reference))
          references
        @ [ Alcotest.test_case "cache on vs off" `Quick test_cache_on_off ] );
      ( "mutants",
        [
          Alcotest.test_case "each mutant caught" `Quick test_mutants_caught;
          Alcotest.test_case "parents healthy" `Quick test_mutant_parents_healthy;
        ] );
      ("fuzz", [ Alcotest.test_case "fuzzable entries" `Quick test_fuzzable_entries ]);
    ]
