(* Component micro-benchmarks and the pruning ablation.

   The paper's evaluation (Section 6) is Table 2 plus one in-text
   counterexample; both are regenerated by the CLI:
     holistic table2 [--format markdown|csv]
     holistic verify simplified --broken-resilience --spec Inv1_0 --force
   The end-to-end benchmark is perfbench/ (see BENCHMARK.json).  This
   harness measures the pieces underneath:

   1. Bechamel micro-benchmarks, one Test per component.
   2. Pruning ablation: schema counts with the guard implication order
      and producibility pruning switched off.

   Usage: dune exec bench/main.exe [-- --quick] *)

let quick = Array.exists (( = ) "--quick") Sys.argv

(* ------------------------------------------------------------------ *)
(* Section 1: Bechamel micro-benchmarks.                                *)

let micro () =
  print_endline "== Micro-benchmarks (Bechamel; one Test per component) ==";
  let open Bechamel in
  let bv = Models.Bv_ta.automaton in
  let bv_u = Holistic.Universe.build bv in
  let spec = List.hd Models.Bv_ta.table2_specs in
  let deep_schema =
    let result = ref [] in
    ignore
      (Holistic.Schema.enumerate bv_u spec ~on_schema:(fun s ->
           if List.length s = 4 then begin
             result := s;
             false
           end
           else true));
    !result
  in
  let encoded = Holistic.Encode.encode bv_u spec deep_schema in
  (* A leaf query of the capped simplified SRound-Term row that equality
     elimination refutes on its own: [Lia.solve] answers Unsat without a
     single simplex call, and no atom is false before elimination. *)
  let elimination_refuted =
    let u = Holistic.Universe.build Models.Simplified_ta.automaton in
    let spec = Models.Simplified_ta.sround_term in
    let found = ref None in
    ignore
      (Holistic.Schema.enumerate u spec ~on_schema:(fun s ->
           let atoms = (Holistic.Encode.encode u spec s).Holistic.Encode.atoms in
           let steps = ref 0 in
           if
             List.for_all (fun a -> Smt.Atom.trivial a <> Some false) atoms
             && Smt.Lia.solve ~steps atoms = Smt.Lia.Unsat
             && !steps = 0
           then found := Some atoms;
           !found = None));
    match !found with
    | Some atoms -> atoms
    | None -> failwith "no SRound-Term query is refuted by equality elimination"
  in
  let tests =
    [
      Test.make ~name:"universe-build(bv)"
        (Staged.stage (fun () -> ignore (Holistic.Universe.build bv)));
      Test.make ~name:"schema-enumeration(bv)"
        (Staged.stage (fun () -> ignore (Holistic.Schema.count bv_u spec ~limit:10_000)));
      Test.make ~name:"encode-deep-schema(bv)"
        (Staged.stage (fun () -> ignore (Holistic.Encode.encode bv_u spec deep_schema)));
      Test.make ~name:"lia-solve-deep-schema(bv)"
        (Staged.stage (fun () -> ignore (Smt.Lia.solve encoded.Holistic.Encode.atoms)));
      Test.make ~name:"lia-solve-eliminated(SRound-Term)"
        (Staged.stage (fun () -> ignore (Smt.Lia.solve elimination_refuted)));
      Test.make ~name:"verify(BV-Just0)"
        (Staged.stage (fun () ->
             ignore (Holistic.Checker.verify_with_universe bv_u spec)));
      Test.make ~name:"explicit-check(bv,n=4)"
        (Staged.stage (fun () ->
             ignore (Explicit.check bv spec [ ("n", 4); ("t", 1); ("f", 1) ])));
      Test.make ~name:"dbft-simulation(n=4)"
        (Staged.stage (fun () ->
             ignore
               (Dbft.Runner.run
                  (Dbft.Runner.config ~n:4 ~t:1 ~inputs:[ 0; 1; 0 ]
                     ~byzantine:[ (3, Dbft.Byzantine.Equivocate) ]
                     ~scheduler:(Simnet.Scheduler.random ~seed:1) ()))));
    ]
  in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second (if quick then 0.25 else 1.0)) ()
  in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols = Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |] in
      let stats = Analyze.all ols instance results in
      Hashtbl.iter
        (fun name ols ->
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some [ e ] -> Printf.sprintf "%12.0f ns/run" e
            | _ -> "n/a"
          in
          Printf.printf "%-32s %s\n%!" name estimate)
        stats)
    tests;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 2: pruning ablation — how much the guard implication order
   and producibility pruning shrink the schema enumeration (the design
   choices of DESIGN.md).  Enumeration only, no solving. *)

let ablation () =
  print_endline "== Ablation: schema enumeration with pruning disabled ==";
  let count ~limit ta spec ~imp ~prod =
    let u = Holistic.Universe.build ~use_implication_order:imp ~use_producibility:prod ta in
    match Holistic.Schema.count u spec ~limit with
    | `Exactly n -> string_of_int n
    | `More_than n -> Printf.sprintf ">%d" n
  in
  let line ?(limit = 200_000) label ta spec =
    let count = count ~limit in
    Printf.printf "%-28s both: %-8s no-implication: %-8s no-producibility: %-9s neither: %s\n%!"
      label
      (count ta spec ~imp:true ~prod:true)
      (count ta spec ~imp:false ~prod:true)
      (count ta spec ~imp:true ~prod:false)
      (count ta spec ~imp:false ~prod:false)
  in
  line "bv-broadcast / BV-Just0" Models.Bv_ta.automaton (List.hd Models.Bv_ta.table2_specs);
  line "simplified / Inv2_0" Models.Simplified_ta.automaton Models.Simplified_ta.inv2_0;
  if not quick then
    line ~limit:100_000 "naive / Inv2_0" Models.Naive_ta.automaton Models.Naive_ta.inv2_0;
  print_newline ()

let () =
  Printf.printf "mode: %s\n\n" (if quick then "quick" else "full");
  micro ();
  ablation ();
  print_endline "done."
