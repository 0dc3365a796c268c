(* The model zoo end-to-end: enumerate Models.Zoo, lint every entry,
   verify its properties against the registry's expected verdicts,
   print the Table-2-style report rows, and show both rejection paths
   for seeded mutants (a lint error, and a counterexample witness).

   Run with: dune exec examples/zoo_demo.exe
   (also wired into `dune runtest`: the demo exits non-zero on any
   lint error, verdict mismatch or uncaught mutant) *)

module Z = Models.Zoo
module S = Ta.Spec

let failures = ref 0

let fail fmt =
  Printf.ksprintf
    (fun msg ->
      incr failures;
      Printf.printf "  FAIL: %s\n" msg)
    fmt

(* The two Ben-Or rows that need real solver time (~40 s each) are
   covered by test/test_zoo.ml and `holistic table2 --zoo`; the demo
   skips them to stay interactive. *)
let skip_in_demo = [ "BenOr-Agree"; "BenOr-OneProp" ]

let () =
  Format.printf "== the model zoo (%d entries, %d seeded mutants) ==@."
    (List.length Z.entries) (List.length Z.all_mutants);
  List.iter
    (fun (e : Z.entry) ->
      Format.printf "  %-12s %s — %d properties, %d mutant(s)@." e.Z.key e.Z.title
        (List.length e.Z.specs) (List.length e.Z.mutants))
    Z.entries;

  Format.printf "@.== lint: every entry must be free of error-level diagnostics ==@.";
  List.iter
    (fun (e : Z.entry) ->
      let diags =
        Analysis.run ~assume:e.Z.justice_assumption ~specs:(List.map fst e.Z.specs)
          e.Z.automaton
      in
      (match Analysis.errors diags with
      | [] -> Format.printf "  %-12s clean (%d diagnostic(s))@." e.Z.key (List.length diags)
      | errs -> fail "%s: %d lint error(s)" e.Z.key (List.length errs));
      List.iter (fun d -> Format.printf "    %a@." Analysis.pp d) diags)
    Z.entries;

  Format.printf "@.== verify: registry's expected verdict per (entry, property) ==@.";
  let rows =
    List.concat_map
      (fun (e : Z.entry) ->
        let u = Holistic.Universe.build e.Z.automaton in
        List.filter_map
          (fun ((spec : S.t), expected) ->
            if List.mem spec.S.name skip_in_demo then begin
              Format.printf "  %-12s %-16s (skipped in the demo; see table2 --zoo)@."
                e.Z.key spec.S.name;
              None
            end
            else begin
              let r = Holistic.Checker.verify_with_universe u spec in
              (match (expected, r.Holistic.Checker.outcome) with
              | Z.Holds, Holistic.Checker.Holds -> ()
              | Z.Violated, Holistic.Checker.Violated _ -> ()
              | expected, _ ->
                fail "%s/%s: expected %s" e.Z.key spec.S.name
                  (Z.verdict_to_string expected));
              Some
                (Report.row_of_result ~ta_label:("zoo: " ^ e.Z.key)
                   ~size:(Report.size_string e.Z.automaton) ~paper:"-" r)
            end)
          e.Z.specs)
      Z.entries
  in
  print_newline ();
  Report.print_text stdout rows;

  Format.printf "@.== mutants: each one caught the way its registry entry declares ==@.";
  List.iter
    (fun ((e : Z.entry), (m : Z.mutant)) ->
      match m.Z.rejection with
      | Z.Lint code ->
        let diags = Analysis.run ~specs:(List.map fst e.Z.specs) m.Z.mutant_automaton in
        let hit =
          List.exists (fun (d : Analysis.diagnostic) -> d.Analysis.code = code)
            (Analysis.errors diags)
        in
        if hit then
          Format.printf "  %-26s rejected by lint (%s), as registered@." m.Z.mutant_key
            code
        else fail "%s: lint did not report %s" m.Z.mutant_key code
      | Z.Checker spec -> (
        let r = Holistic.Checker.verify m.Z.mutant_automaton spec in
        match r.Holistic.Checker.outcome with
        | Holistic.Checker.Violated w ->
          Format.printf "  %-26s refuted by a %d-step witness to %s@." m.Z.mutant_key
            (List.length w.Holistic.Witness.steps)
            spec.S.name
        | _ -> fail "%s: checker did not produce a counterexample" m.Z.mutant_key)
      | Z.Fuzz { spec; n; t; f; value; sched_seed } -> (
        (* Checker blind on the mutant, simulation not: the divergence
           pair that motivates holistic (multi-layer) verification. *)
        let r = Holistic.Checker.verify m.Z.mutant_automaton spec in
        match (r.Holistic.Checker.outcome, Fuzz.Crossval.realize ~n ~t ~f ~value ~sched_seed) with
        | Holistic.Checker.Holds, Some trace ->
          Format.printf
            "  %-26s checker-invisible (%s holds) but fuzz violates it in %d events@."
            m.Z.mutant_key spec.S.name
            (List.length trace.Fuzz.Trace.events)
        | Holistic.Checker.Holds, None ->
          fail "%s: fuzz oracle found no violation at n=%d t=%d f=%d" m.Z.mutant_key n
            t f
        | _, _ -> fail "%s: checker unexpectedly rejected the mutant" m.Z.mutant_key))
    Z.all_mutants;

  if !failures > 0 then begin
    Printf.printf "\nzoo demo: %d failure(s)\n" !failures;
    exit 1
  end;
  print_endline "\nzoo demo: all gates green"
