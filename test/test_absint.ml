(* The abstract-interpretation invariant engine (lib/analysis/absint.ml)
   and its three consumers:

   - the fixpoint itself, pinned on hand-built gadgets: a quantitative
     contradicted guard (TA017/TA020) that the syntactic liveness pass
     cannot see, a dominated guard atom (TA019), and a widening loop
     (TA024) whose join keeps lowering one row's bound until the
     per-row widening limit trips;
   - the checker's static discharge: on every bundled bv property and
     on the gadgets, the sequential and the parallel engine with static
     discharge on must report bit-identical outcomes, schema counts and
     slot totals to the same engine with it off, never more solver
     steps (sequentially), and emit Static certificates that replay
     through the standalone checker; the default engine proves the
     simplified model's Inv2_0 and Good_0 at zero solver steps;
   - the strengthened slicer: semantic slicing composes with
     checkpoint/resume, and the checkpoint fingerprint refuses a
     sliced/unsliced mismatch in both directions.

   A qcheck sweep over random small DAG automata (the generator of
   test_incremental) extends the static-vs-nonstatic contract beyond
   the bundled models. *)

module A = Ta.Automaton
module G = Ta.Guard
module P = Ta.Pexpr
module C = Ta.Cond
module S = Ta.Spec
module Ck = Holistic.Checker
module Ab = Analysis.Absint
module D = Analysis.Domain

let limits ?(max_schemas = 100_000) ?(jobs = 1) ?(static = true) () =
  { Ck.default_limits with max_schemas; jobs; static }

let outcome_repr = function
  | Ck.Holds -> "holds"
  | Ck.Violated w -> Format.asprintf "violated@\n%a" Holistic.Witness.pp w
  | Ck.Aborted reason -> "aborted: " ^ reason
  | Ck.Partial { quarantined; reason } ->
    Format.asprintf "partial (%d quarantined): %s" (List.length quarantined) reason

let codes diags = List.map (fun d -> d.Analysis.code) diags
let has_code c diags = List.mem c (codes diags)

(* ------------------------------------------------------------------ *)
(* Gadget 1: quantitative contradiction.  The producer of [x] is live
   and not self-guarded, so the syntactic pass (TA008) keeps [r_gate];
   but one round moves at most [population = n] processes through it,
   so [x] is bounded by [n] and the threshold [n + 1] is statically
   false -> TA017 on the rule, TA020 on its target.                     *)

let contradicted_ta =
  A.make ~name:"contradicted" ~params:[ "n" ] ~shared:[ "x" ]
    ~locations:[ "L0"; "L1"; "L2"; "L3" ]
    ~initial:[ "L0"; "L1" ]
    ~resilience:[ P.of_terms [ ("n", 1) ] (-1) ]
    ~population:(P.param "n")
    ~rules:
      [
        A.rule "r_prod" ~source:"L0" ~target:"L2" ~guard:G.tt
          ~update:[ ("x", 1) ] ~fairness:A.Unfair;
        A.rule "r_gate" ~source:"L1" ~target:"L3"
          ~guard:(G.ge1 "x" (P.of_terms [ ("n", 1) ] 1))
          ~update:[] ~fairness:A.Unfair;
      ]
    ()

let reach_l3_spec =
  S.invariant ~name:"reach-L3" ~ltl:"<>(k[L3] != 0)"
    ~bad:[ ("L3 reached", C.some_nonempty [ "L3" ]) ]
    ()

(* No round switch: one-round capacities, as the linter and the static
   discharge both use on these models. *)
let one_round = { Ab.no_assumptions with mode = Ab.One_round }

let test_contradicted_guard () =
  let ab = Ab.build ~assume:one_round contradicted_ta in
  let gate_atom = { G.shared = [ ("x", 1) ]; bound = P.of_terms [ ("n", 1) ] 1 } in
  (match Ab.false_atom ab gate_atom with
   | Some cap -> Alcotest.(check string) "capacity is n" "n" (P.to_string cap)
   | None -> Alcotest.fail "x >= n+1 should be statically false");
  Alcotest.(check bool) "r_gate dead" false
    (Ab.rule_live ab (List.nth contradicted_ta.rules 1));
  Alcotest.(check bool) "L3 not entered" false (Ab.entered ab "L3");
  Alcotest.(check bool) "L2 entered" true (Ab.entered ab "L2");
  let diags = Analysis.run contradicted_ta in
  Alcotest.(check bool) "TA017 reported" true (has_code "TA017" diags);
  Alcotest.(check bool) "TA020 reported" true (has_code "TA020" diags);
  Alcotest.(check bool) "no TA008 (syntactically live)" false (has_code "TA008" diags)

(* The slicer must use the same fixpoint: r_gate and L3 go away. *)
let test_slice_uses_absint () =
  let sliced, diags = Analysis.slice contradicted_ta in
  Alcotest.(check (list string)) "rules" [ "r_prod" ]
    (List.map (fun (r : A.rule) -> r.name) sliced.rules);
  Alcotest.(check bool) "L3 dropped" false (List.mem "L3" sliced.locations);
  Alcotest.(check bool) "TA017 in slice report" true (has_code "TA017" diags);
  Alcotest.(check bool) "TA016 summary" true (has_code "TA016" diags)

(* ------------------------------------------------------------------ *)
(* Gadget 2: dominated atom.  Within one conjunctive guard, [x >= 2]
   implies [x >= 1]; the weaker atom is redundant -> TA019 (info).      *)

let dominated_ta =
  A.make ~name:"dominated" ~params:[ "n" ] ~shared:[ "x" ]
    ~locations:[ "L0"; "L1"; "L2"; "L3" ]
    ~initial:[ "L0"; "L1" ]
    ~resilience:[ P.of_terms [ ("n", 1) ] (-1) ]
    ~population:(P.param "n")
    ~rules:
      [
        A.rule "r_prod" ~source:"L0" ~target:"L2" ~guard:G.tt
          ~update:[ ("x", 1) ] ~fairness:A.Unfair;
        A.rule "r_both" ~source:"L1" ~target:"L3"
          ~guard:(G.ge1 "x" (P.const 1) @ G.ge1 "x" (P.const 2))
          ~update:[] ~fairness:A.Unfair;
      ]
    ()

let test_dominated_atom () =
  let diags = Analysis.run dominated_ta in
  let ta019 = List.filter (fun d -> d.Analysis.code = "TA019") diags in
  Alcotest.(check int) "one TA019" 1 (List.length ta019);
  let d = List.hd ta019 in
  Alcotest.(check bool) "info severity" true (d.Analysis.severity = Analysis.Info);
  Alcotest.(check bool) "names the redundant atom" true
    (String.length d.Analysis.message > 0
    && d.Analysis.subject = Analysis.Rule "r_both")

(* ------------------------------------------------------------------ *)
(* Gadget 3: widening loop.  Location [t] merges four inflows whose
   lower bounds (x >= 5, 4, 3, 2) arrive on successive sweeps — the
   location list is ordered against the data flow, so each sweep
   propagates one step.  The entailment-min join keeps lowering [t]'s
   row; after [widen_limit] changes the row is widened away -> TA024.   *)

let widening_ta =
  A.make ~name:"widening" ~params:[ "n" ] ~shared:[ "x" ]
    ~locations:
      [ "t"; "a5"; "a4"; "a3"; "a2"; "m1"; "m2b"; "m2a"; "m3c"; "m3b"; "m3a"; "p"; "l0" ]
    ~initial:[ "l0" ]
    ~resilience:[ P.of_terms [ ("n", 1) ] (-1) ]
    ~population:(P.param "n")
    ~rules:
      [
        A.rule "prod" ~source:"l0" ~target:"p" ~guard:G.tt ~update:[ ("x", 5) ]
          ~fairness:A.Unfair;
        A.rule "e5" ~source:"l0" ~target:"a5" ~guard:(G.ge1 "x" (P.const 5)) ~update:[]
          ~fairness:A.Unfair;
        A.rule "e4" ~source:"l0" ~target:"m1" ~guard:(G.ge1 "x" (P.const 4)) ~update:[]
          ~fairness:A.Unfair;
        A.rule "e4b" ~source:"m1" ~target:"a4" ~guard:G.tt ~update:[] ~fairness:A.Unfair;
        A.rule "e3" ~source:"l0" ~target:"m2a" ~guard:(G.ge1 "x" (P.const 3)) ~update:[]
          ~fairness:A.Unfair;
        A.rule "e3b" ~source:"m2a" ~target:"m2b" ~guard:G.tt ~update:[] ~fairness:A.Unfair;
        A.rule "e3c" ~source:"m2b" ~target:"a3" ~guard:G.tt ~update:[] ~fairness:A.Unfair;
        A.rule "e2" ~source:"l0" ~target:"m3a" ~guard:(G.ge1 "x" (P.const 2)) ~update:[]
          ~fairness:A.Unfair;
        A.rule "e2b" ~source:"m3a" ~target:"m3b" ~guard:G.tt ~update:[] ~fairness:A.Unfair;
        A.rule "e2c" ~source:"m3b" ~target:"m3c" ~guard:G.tt ~update:[] ~fairness:A.Unfair;
        A.rule "e2d" ~source:"m3c" ~target:"a2" ~guard:G.tt ~update:[] ~fairness:A.Unfair;
        A.rule "f5" ~source:"a5" ~target:"t" ~guard:G.tt ~update:[] ~fairness:A.Unfair;
        A.rule "f4" ~source:"a4" ~target:"t" ~guard:G.tt ~update:[] ~fairness:A.Unfair;
        A.rule "f3" ~source:"a3" ~target:"t" ~guard:G.tt ~update:[] ~fairness:A.Unfair;
        A.rule "f2" ~source:"a2" ~target:"t" ~guard:G.tt ~update:[] ~fairness:A.Unfair;
      ]
    ()

let test_widening_loop () =
  let ab = Ab.build widening_ta in
  Alcotest.(check bool) "not sweep-capped" false ab.Ab.capped;
  Alcotest.(check bool) "widening fired" true (ab.Ab.widened <> []);
  Alcotest.(check bool) "widened row is at t" true
    (List.exists (fun (l, _) -> l = "t") ab.Ab.widened);
  let diags = Analysis.run widening_ta in
  Alcotest.(check bool) "TA024 reported" true (has_code "TA024" diags)

(* ------------------------------------------------------------------ *)
(* Lower-bound invariant spot check: meeting a guard and shifting an
   update is visible in the synthesized row.                            *)

let invariant_ta =
  A.make ~name:"inv" ~params:[ "n" ] ~shared:[ "x" ]
    ~locations:[ "L0"; "L1"; "L2" ]
    ~initial:[ "L0" ]
    ~resilience:[ P.of_terms [ ("n", 1) ] (-1) ]
    ~population:(P.param "n")
    ~rules:
      [
        A.rule "r_prod" ~source:"L0" ~target:"L2" ~guard:G.tt
          ~update:[ ("x", 1) ] ~fairness:A.Unfair;
        A.rule "r_step" ~source:"L0" ~target:"L1"
          ~guard:(G.ge1 "x" (P.const 1))
          ~update:[ ("x", 2) ] ~fairness:A.Unfair;
      ]
    ()

let test_location_invariant () =
  let ab = Ab.build invariant_ta in
  Alcotest.(check bool) "r_step live" true
    (Ab.rule_live ab (List.nth invariant_ta.rules 1));
  let st = Ab.lower ab "L1" in
  match D.find_row st [ ("x", 1) ] with
  | Some row ->
    (* guard x >= 1 met, update x += 2 shifted: x >= 3 on entry *)
    Alcotest.(check string) "x >= 3 at L1" "3" (P.to_string row.D.lo)
  | None -> Alcotest.fail "expected a lower-bound row for x at L1"

(* Certified refutations: the gadget's spec is refuted at the root
   (L3 is never entered, so the observation k[L3] >= 1 is statically
   false), and the refutation carries a pre-validated certificate. *)
let test_invariants_root () =
  let inv = Analysis.Invariants.build ~spec:reach_l3_spec contradicted_ta in
  Alcotest.(check bool) "refutation available" true (Analysis.Invariants.any inv);
  match Analysis.Invariants.root_refutation inv with
  | None -> Alcotest.fail "expected a root refutation"
  | Some r -> (
    Alcotest.(check bool) "static certificate" true
      (match r.Analysis.Invariants.cert with
       | Smt.Certificate.Static _ -> true
       | _ -> false);
    match
      Smt.Certcheck.validate_query ~atoms:r.Analysis.Invariants.atoms ~branches:[]
        r.Analysis.Invariants.cert
    with
    | Ok () -> ()
    | Error msg -> Alcotest.failf "root certificate rejected: %s" msg)

(* ------------------------------------------------------------------ *)
(* Static discharge vs full solving, sequentially and in parallel.       *)

let check_static_pair ?(expect_prunes = false) name u spec =
  List.iter
    (fun jobs ->
      let run static = Ck.verify_with_universe ~limits:(limits ~jobs ~static ()) u spec in
      let plain = run false in
      let stat = run true in
      let label s = Printf.sprintf "%s [jobs=%d]: %s" name jobs s in
      Alcotest.(check string) (label "outcome/witness")
        (outcome_repr plain.Ck.outcome) (outcome_repr stat.Ck.outcome);
      Alcotest.(check int) (label "schemas") plain.Ck.stats.schemas_checked
        stat.Ck.stats.schemas_checked;
      Alcotest.(check int) (label "slots") plain.Ck.stats.slots_total
        stat.Ck.stats.slots_total;
      Alcotest.(check int) (label "no statics when off") 0 plain.Ck.stats.static_prunes;
      if jobs = 1 then
        Alcotest.(check bool) (label "steps no worse") true
          (stat.Ck.stats.solver_steps <= plain.Ck.stats.solver_steps);
      if expect_prunes then
        Alcotest.(check bool) (label "static prunes fire") true
          (stat.Ck.stats.static_prunes > 0))
    [ 1; 4 ]

let test_bundled_bv () =
  let u = Holistic.Universe.build Models.Bv_ta.automaton in
  List.iter
    (fun (spec : S.t) -> check_static_pair ("bv " ^ spec.name) u spec)
    Models.Bv_ta.all_specs

(* The default engine discharges the simplified model's Inv2_0 and Good_0
   without the solver: both hold, at least one subtree is refuted
   statically, and no simplex step is spent. *)
let test_simplified_static_discharge () =
  let u = Holistic.Universe.build Models.Simplified_ta.automaton in
  List.iter
    (fun (spec : S.t) ->
      let r = Ck.verify_with_universe u spec in
      let label s = Printf.sprintf "simplified %s: %s" spec.name s in
      Alcotest.(check string) (label "outcome") "holds" (outcome_repr r.Ck.outcome);
      Alcotest.(check bool) (label "static prunes fire") true (r.Ck.stats.static_prunes >= 1);
      Alcotest.(check int) (label "zero solver steps") 0 r.Ck.stats.solver_steps)
    [ Models.Simplified_ta.inv2_0; Models.Simplified_ta.good_0 ]

let test_gadget_static_discharge () =
  let u = Holistic.Universe.build contradicted_ta in
  check_static_pair ~expect_prunes:true "contradicted reach-L3" u reach_l3_spec;
  let stat = Ck.verify_with_universe ~limits:(limits ()) u reach_l3_spec in
  (match stat.Ck.outcome with
   | Ck.Holds -> ()
   | o -> Alcotest.failf "gadget should hold, got %s" (outcome_repr o));
  Alcotest.(check int) "zero solver steps" 0 stat.Ck.stats.solver_steps;
  (* The explicit-state checker agrees with the statically discharged
     verdict at small parameters. *)
  List.iter
    (fun n ->
      match Explicit.check contradicted_ta reach_l3_spec [ ("n", n) ] with
      | Explicit.Holds -> ()
      | Explicit.Violated _ -> Alcotest.fail "explicit checker disagrees")
    [ 1; 2; 3; 4 ]

(* Static certificates flow through the emission sink and replay
   through the standalone checker, covering the whole transcript. *)
let test_static_certificate_emission () =
  let u = Holistic.Universe.build contradicted_ta in
  let path = Filename.temp_file "holistic_static_certs" ".jsonl" in
  let oc = open_out path in
  let sink = Holistic.Certs.create oc in
  let r =
    Ck.verify_with_universe ~limits:(limits ()) ~certs:sink u
      reach_l3_spec
  in
  close_out oc;
  Alcotest.(check int) "no emission failures" 0 (Holistic.Certs.failed sink);
  let module J = Jsonc in
  let ic = open_in path in
  let statics = ref 0 and covered = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         let j = J.of_string line in
         let kind = J.to_str (J.member "kind" j) in
         let atoms =
           List.map Smt.Certificate.atom_of_json (J.to_list (J.member "atoms" j))
         in
         covered :=
           !covered
           + (if kind = "prefix" || kind = "static" then
                J.to_int (J.member "span" j)
              else 1);
         if kind = "static" then incr statics;
         match
           Smt.Certcheck.validate_query ~atoms ~branches:[]
             (Smt.Certificate.of_json (J.member "cert" j))
         with
         | Ok () -> ()
         | Error msg -> Alcotest.failf "certificate rejected: %s" msg
       end
     done
   with End_of_file -> close_in ic);
  Sys.remove path;
  Alcotest.(check bool) "static records emitted" true (!statics > 0);
  Alcotest.(check int) "certificates cover the transcript" r.Ck.stats.schemas_checked
    !covered

(* ------------------------------------------------------------------ *)
(* Slicing composes with checkpoint/resume; the fingerprint refuses a
   sliced/unsliced mismatch in both directions.                         *)

let with_temp_checkpoint f =
  let path = Filename.temp_file "holistic_absint_ckpt" ".journal" in
  Sys.remove path;
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists path then Sys.remove path)
    (fun () -> f path)

let test_slice_checkpoint_refusal () =
  with_temp_checkpoint (fun path ->
      (* Checkpoint recorded for the sliced automaton... *)
      let r1 =
        Ck.verify ~limits:(limits ()) ~slice:true ~checkpoint:path contradicted_ta
          reach_l3_spec
      in
      (* ...resumes cleanly with the same slicing... *)
      let r2 =
        Ck.verify ~limits:(limits ()) ~slice:true ~checkpoint:path ~resume:true
          contradicted_ta reach_l3_spec
      in
      Alcotest.(check string) "sliced resume agrees" (outcome_repr r1.Ck.outcome)
        (outcome_repr r2.Ck.outcome);
      Alcotest.(check int) "sliced resume schemas" r1.Ck.stats.schemas_checked
        r2.Ck.stats.schemas_checked;
      (* ...and is refused without it. *)
      match
        Ck.verify ~limits:(limits ()) ~slice:false ~checkpoint:path ~resume:true
          contradicted_ta reach_l3_spec
      with
      | _ -> Alcotest.fail "unsliced resume of a sliced checkpoint must be refused"
      | exception Invalid_argument _ -> ());
  with_temp_checkpoint (fun path ->
      (* And the other direction: unsliced checkpoint, sliced resume. *)
      let _ =
        Ck.verify ~limits:(limits ()) ~slice:false ~checkpoint:path contradicted_ta
          reach_l3_spec
      in
      match
        Ck.verify ~limits:(limits ()) ~slice:true ~checkpoint:path ~resume:true
          contradicted_ta reach_l3_spec
      with
      | _ -> Alcotest.fail "sliced resume of an unsliced checkpoint must be refused"
      | exception Invalid_argument _ -> ())

(* ------------------------------------------------------------------ *)
(* Random small DAG automata (the generator of test_incremental): the
   static discharge must preserve outcome, schema count and slot total
   on both sequential engines, never add solver steps, and compose
   with slicing + checkpoint/resume.                                    *)

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

let static_agrees descs =
  let ta = build_ta descs in
  let run ~jobs ~static =
    Ck.verify ~limits:(limits ~max_schemas:5_000 ~jobs ~static ()) ta reach_spec
  in
  List.for_all
    (fun jobs ->
      let plain = run ~jobs ~static:false in
      let stat = run ~jobs ~static:true in
      (match stat.Ck.outcome with
       | Ck.Aborted _ | Ck.Partial _ -> QCheck.assume_fail ()
       | _ -> ());
      outcome_repr plain.Ck.outcome = outcome_repr stat.Ck.outcome
      && plain.Ck.stats.schemas_checked = stat.Ck.stats.schemas_checked
      && plain.Ck.stats.slots_total = stat.Ck.stats.slots_total
      && (jobs > 1 || stat.Ck.stats.solver_steps <= plain.Ck.stats.solver_steps)
      && plain.Ck.stats.static_prunes = 0)
    [ 1; 2 ]

let slice_checkpoint_composes descs =
  let ta = build_ta descs in
  with_temp_checkpoint (fun path ->
      let r1 =
        Ck.verify ~limits:(limits ~max_schemas:5_000 ()) ~slice:true ~checkpoint:path
          ta reach_spec
      in
      (match r1.Ck.outcome with
       | Ck.Aborted _ | Ck.Partial _ -> QCheck.assume_fail ()
       | _ -> ());
      let r2 =
        Ck.verify ~limits:(limits ~max_schemas:5_000 ()) ~slice:true ~checkpoint:path
          ~resume:true ta reach_spec
      in
      let agree =
        outcome_repr r1.Ck.outcome = outcome_repr r2.Ck.outcome
        && r1.Ck.stats.schemas_checked = r2.Ck.stats.schemas_checked
        && r1.Ck.stats.solver_steps = r2.Ck.stats.solver_steps
      in
      (* When slicing actually changed the automaton (under the same
         keep-list the checker uses), the fingerprint must refuse the
         unsliced resume. *)
      let sliced, _ = Analysis.slice ~keep:(Analysis.spec_locations reach_spec) ta in
      let changed = List.length sliced.A.rules <> List.length ta.A.rules
                    || List.length sliced.A.locations <> List.length ta.A.locations in
      let refused =
        (not changed)
        ||
        match
          Ck.verify ~limits:(limits ~max_schemas:5_000 ()) ~slice:false
            ~checkpoint:path ~resume:true ta reach_spec
        with
        | _ -> false
        | exception Invalid_argument _ -> true
      in
      agree && refused)

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random DAGs: static = non-static, sequential and parallel"
         ~count:30 arb_ta static_agrees);
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random DAGs: slice composes with checkpoint/resume"
         ~count:30 arb_ta slice_checkpoint_composes);
  ]

let () =
  Alcotest.run "absint"
    [
      ( "fixpoint gadgets",
        [
          Alcotest.test_case "contradicted guard (TA017/TA020)" `Quick
            test_contradicted_guard;
          Alcotest.test_case "slice uses the fixpoint" `Quick test_slice_uses_absint;
          Alcotest.test_case "dominated atom (TA019)" `Quick test_dominated_atom;
          Alcotest.test_case "widening loop (TA024)" `Quick test_widening_loop;
          Alcotest.test_case "location invariant row" `Quick test_location_invariant;
          Alcotest.test_case "certified root refutation" `Quick test_invariants_root;
        ] );
      ( "static discharge",
        [
          Alcotest.test_case "bundled bv, sequential and parallel" `Quick test_bundled_bv;
          Alcotest.test_case "simplified Inv2_0 and Good_0 at zero steps" `Quick
            test_simplified_static_discharge;
          Alcotest.test_case "gadget discharged at zero steps" `Quick
            test_gadget_static_discharge;
          Alcotest.test_case "static certificates emit and replay" `Quick
            test_static_certificate_emission;
        ] );
      ( "slicing and checkpoints",
        [
          Alcotest.test_case "fingerprint refusal both directions" `Quick
            test_slice_checkpoint_refusal;
        ] );
      ("random automata", qcheck_tests);
    ]
