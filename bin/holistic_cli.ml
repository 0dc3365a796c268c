(* Command-line interface to the reproduction: inspect the threshold
   automata, verify properties (parameterized or explicit-state), export
   the automata as DOT (Figures 2-4), and run the executable DBFT
   consensus on the simulated network. *)

open Cmdliner

type model = Bv | Naive | Simplified | BenOr | ZooEntry of Models.Zoo.entry

let automaton_of ?(broken = false) = function
  | Bv -> Models.Bv_ta.automaton
  | Naive -> Models.Naive_ta.automaton
  | Simplified ->
    if broken then Models.Simplified_ta.automaton_broken_resilience
    else Models.Simplified_ta.automaton
  | BenOr -> Models.Ben_or.automaton
  | ZooEntry e -> e.Models.Zoo.automaton

let specs_of = function
  | Bv -> Models.Bv_ta.all_specs
  | Naive -> Models.Naive_ta.table2_specs
  | Simplified -> Models.Simplified_ta.all_specs
  | BenOr -> Models.Ben_or.all_specs
  | ZooEntry e -> List.map fst e.Models.Zoo.specs

let model_key = function
  | Bv -> "bv"
  | Naive -> "naive"
  | Simplified -> "simplified"
  | BenOr -> "benor"
  | ZooEntry e -> e.Models.Zoo.key

(* The name a model lints under.  Zoo entries are labelled by registry
   key ("zoo:dbft-rta") rather than automaton name: the dbft-rta entry
   unrolls to an automaton bit-identical to the simplified model
   (including its name), and the lint output must keep them apart. *)
let lint_name model (ta : Ta.Automaton.t) =
  match model with ZooEntry e -> "zoo:" ^ e.Models.Zoo.key | _ -> ta.name

let model_conv =
  let parse = function
    | "bv" | "bv-broadcast" -> Ok Bv
    | "naive" -> Ok Naive
    | "simplified" -> Ok Simplified
    | "benor" | "ben-or" -> Ok BenOr
    | s -> (
      match Models.Zoo.find s with
      | Some e -> Ok (ZooEntry e)
      | None ->
        Error
          (`Msg
            (Printf.sprintf "unknown model %S (expected bv|naive|simplified|benor or a zoo key: %s)"
               s (String.concat "|" Models.Zoo.keys))))
  in
  let print fmt m = Format.pp_print_string fmt (model_key m) in
  Arg.conv (parse, print)

let model_arg =
  Arg.(required & pos 0 (some model_conv) None & info [] ~docv:"MODEL"
         ~doc:"Threshold automaton: bv, naive, simplified, benor, or a model-zoo key \
               (bracha, phase-king, strb, frb, dbft-rta).")

let spec_arg =
  Arg.(value & opt (some string) None & info [ "spec" ] ~docv:"NAME"
         ~doc:"Property name (default: all properties of the model).")

let find_specs model spec_name =
  let all = specs_of model in
  match spec_name with
  | None -> all
  | Some n -> (
    match List.find_opt (fun (s : Ta.Spec.t) -> s.name = n) all with
    | Some s -> [ s ]
    | None ->
      failwith
        (Printf.sprintf "unknown property %S; available: %s" n
           (String.concat ", " (List.map (fun (s : Ta.Spec.t) -> s.name) all))))

(* Exit code 4 (see README "Exit codes"): an input file or path the
   command was explicitly pointed at is unreadable or not in the
   expected format.  One line to stderr, no backtrace. *)
let input_error fmt =
  Printf.ksprintf
    (fun msg ->
      prerr_endline ("holistic: " ^ msg);
      exit 4)
    fmt

(* The resilience condition under which a model's justice constraints
   were proven: the simplified TA imports bv-broadcast properties
   established for n > 3t (Appendix F), so linting it under a weaker
   resilience condition must fail (Analysis TA015).  Models without
   justice constraints ignore this. *)
let justice_assumption_of = function
  | Simplified -> Models.Params.resilience
  | Bv | Naive | BenOr -> []
  | ZooEntry e -> e.Models.Zoo.justice_assumption

let lint_diagnostics ?broken model =
  let ta = automaton_of ?broken model in
  (ta, Analysis.run ~assume:(justice_assumption_of model) ~specs:(specs_of model) ta)

(* Exit code of `lint`, and the gate for verify/table2: refuse
   error-level models unless --force. *)
let severity_code = function
  | Some Analysis.Error -> 2
  | Some Analysis.Warning -> 1
  | Some Analysis.Info | None -> 0

let gate ~force ?broken model =
  let ta, diags = lint_diagnostics ?broken model in
  match Analysis.errors diags with
  | [] -> ()
  | errs when force ->
    List.iter (fun d -> Format.eprintf "%s: %a (ignored: --force)@." ta.Ta.Automaton.name Analysis.pp d) errs
  | errs ->
    List.iter (fun d -> Format.eprintf "%s: %a@." ta.Ta.Automaton.name Analysis.pp d) errs;
    Format.eprintf
      "%s: rejected by lint (%d error(s)); rerun with --force to verify anyway@."
      ta.Ta.Automaton.name (List.length errs);
    exit 2

(* --- info ---------------------------------------------------------- *)

let info_cmd =
  let run model =
    let ta = automaton_of model in
    Format.printf "automaton %s: %a@." ta.Ta.Automaton.name Ta.Automaton.pp_stats
      (Ta.Automaton.stats ta);
    Format.printf "parameters: %s; shared: %s@."
      (String.concat ", " ta.params)
      (String.concat ", " ta.shared);
    Format.printf "locations: %s@." (String.concat ", " ta.locations);
    Format.printf "properties:@.";
    List.iter (fun s -> Format.printf "  %a@." Ta.Spec.pp s) (specs_of model)
  in
  Cmd.v (Cmd.info "info" ~doc:"Show an automaton's structure and properties.")
    Term.(const run $ model_arg)

(* --- verify -------------------------------------------------------- *)

(* Shared by verify and table2: the abstract-interpretation static
   discharge.  Soundness contract: verdicts, witnesses and schema counts
   are bit-identical either way; --no-static exists to demonstrate (and
   test) exactly that, and to time the solver without the shortcut. *)
let static_arg =
  Arg.(value
       & vflag true
           [
             ( true,
               info [ "static" ]
                 ~doc:"Discharge schemas refuted by the invariant engine's certified \
                       static analysis without invoking the solver (default).  \
                       Verdicts, witnesses and schema counts are identical to \
                       $(b,--no-static); only solver effort differs." );
             ( false,
               info [ "no-static" ]
                 ~doc:"Disable the static discharge: every schema goes to the \
                       solver." );
           ])

(* Shared by verify and table2: crash-safe checkpointing.  --checkpoint
   names a directory (created if missing) holding one journal file per
   (TA, property) — see Report.checkpoint_file — so a multi-property run
   interrupted anywhere resumes every property from its own frontier. *)
let checkpoint_arg =
  Arg.(value & opt (some string) None
       & info [ "checkpoint" ] ~docv:"DIR"
           ~doc:"Persist a resumable checkpoint per property under this directory \
                 (created if missing).")

let resume_arg =
  Arg.(value & flag
       & info [ "resume" ]
           ~doc:"Resume from the checkpoints under --checkpoint: completed schema \
                 ranges are not re-solved, and verdicts, schema counts and solver-step \
                 totals are identical to an uninterrupted run.  Missing checkpoint \
                 files are cold starts, so the flag is safe in retry loops.")

let checkpoint_every_arg =
  Arg.(value & opt int 64
       & info [ "checkpoint-every" ] ~docv:"N"
           ~doc:"Checkpoint cadence, in discharged schema positions (default 64).")

let ensure_checkpoint_dir = function
  | None -> ()
  | Some dir ->
    if Sys.file_exists dir then begin
      if not (Sys.is_directory dir) then
        input_error "--checkpoint %s exists and is not a directory" dir
    end
    else (
      try Sys.mkdir dir 0o755
      with Sys_error e -> input_error "cannot create checkpoint directory: %s" e)

(* Shared by verify and table2: the cross-property discharge cache and
   the portfolio that discharges its misses.  Opt-in (--memo / --cache /
   --portfolio-check): the default engine stays byte-identical to the
   uncached one, which the equivalence CI gates rely on. *)
let memo_arg =
  Arg.(value & flag
       & info [ "memo" ]
           ~doc:"Route leaf queries through the in-memory cross-property discharge \
                 cache.  A miss is refuted by the certifying solver, which keeps \
                 its certificate, or else decided by the reference solver.  \
                 Verdicts, witnesses and \
                 schema counts are bit-identical to a run without it; only solver \
                 effort changes.  Implied by $(b,--cache) and $(b,--portfolio-check).")

let cache_arg =
  Arg.(value & opt (some string) None
       & info [ "cache" ] ~docv:"FILE"
           ~doc:"Persist the discharge cache to this file (implies $(b,--memo)): \
                 entries are loaded before the run — each revalidated against its \
                 certificate, tampered or stale entries silently dropped — and the \
                 merged cache is written back atomically afterwards.  Every \
                 certificate was replayed when its entry was made; UNSAT entries \
                 without one (refuted by the reference solver where the \
                 certifying one could not certify) are dropped, not written.")

let portfolio_check_arg =
  Arg.(value & flag
       & info [ "portfolio-check" ]
           ~doc:"Cross-check the portfolio (implies $(b,--memo)): every refutation \
                 of the certifying solver is re-proved on the reference simplex, \
                 and a disagreement aborts the position (a solver bug by \
                 construction, never a cache effect).")

(* Load (or create) the shared cache and wrap it in a portfolio; cache
   traffic reports go to stderr so stdout stays parseable (CSV/JSON). *)
(* The library-level cache loader is deliberately advisory (a tampered
   entry degrades to a miss), but a --cache file that exists and is not
   even readable JSON is an operator error, not cache wear: fail fast
   with the documented exit code instead of silently running cold. *)
let check_cache_readable = function
  | None -> ()
  | Some path ->
    if Sys.file_exists path then (
      match
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error e -> input_error "--cache %s is unreadable: %s" path e
      | contents -> (
        match Jsonc.of_string (String.trim contents) with
        | exception Jsonc.Parse_error e ->
          input_error "--cache %s is not a cache file (%s)" path e
        | _ -> ()))

let setup_portfolio ~memo ~cache ~check =
  if not (memo || check || cache <> None) then None
  else
    let qc =
      match cache with
      | None -> Smt.Qcache.create ()
      | Some path ->
        check_cache_readable (Some path);
        let rep = Holistic.Cachefile.load ~path in
        if rep.Holistic.Cachefile.loaded > 0 || rep.Holistic.Cachefile.dropped > 0 then
          Format.eprintf "cache: loaded %d entries from %s (%d dropped by validation)@."
            rep.Holistic.Cachefile.loaded path rep.Holistic.Cachefile.dropped;
        rep.Holistic.Cachefile.cache
    in
    Some (Smt.Portfolio.create ~check qc)

let save_portfolio ~cache portfolio =
  match (cache, portfolio) with
  | Some path, Some pf ->
    let rep = Holistic.Cachefile.save ~path (Smt.Portfolio.cache pf) in
    Format.eprintf "cache: wrote %d certified entries to %s%s@."
      rep.Holistic.Cachefile.written path
      (if rep.Holistic.Cachefile.uncertified > 0 then
         Printf.sprintf " (%d dropped: certification failed)"
           rep.Holistic.Cachefile.uncertified
       else "")
  | _ -> ()

(* SIGINT/SIGTERM wind verification down cooperatively: every engine
   notices at its next budget check (within one solver quantum even
   mid-discharge), flushes its checkpoint and returns its partial
   stats; the driver then exits 130 via [interrupt_exit]. *)
let install_interrupt_handlers () =
  let handle = Sys.Signal_handle (fun _ -> Holistic.Checker.request_interrupt ()) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

(* A corrupt or foreign checkpoint surfaces as [Invalid_argument
   "Checker.verify: ..."] from the resume path; map it to the
   documented one-line input error (exit 4) instead of a backtrace. *)
let with_input_errors f =
  let prefixed msg p = String.length msg >= String.length p && String.sub msg 0 (String.length p) = p in
  try f ()
  with Invalid_argument msg when prefixed msg "Checker.verify:" ->
    input_error "%s (delete the file or rerun without --resume to start cold)" msg

let interrupt_exit () =
  if Holistic.Checker.interrupt_requested () then begin
    prerr_endline
      "holistic: interrupted — partial stats above; checkpoints (if any) are flushed; \
       rerun with --resume to continue";
    exit 130
  end

let verify_cmd =
  let broken =
    Arg.(value & flag & info [ "broken-resilience" ]
           ~doc:"Weaken the resilience condition to n > 2t (simplified model only) to \
                 regenerate the paper's counterexample.")
  in
  let max_schemas =
    Arg.(value & opt int 100_000 & info [ "max-schemas" ] ~docv:"N"
           ~doc:"Abort after this many schemas.")
  in
  let budget =
    Arg.(value & opt (some float) None & info [ "time-budget" ] ~docv:"SECONDS"
           ~doc:"Abort after this much wall-clock time per property.")
  in
  let jobs =
    Arg.(value & opt int (Domain.recommended_domain_count ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains discharging schema queries (1 = the sequential engine; \
                   results are bit-identical either way).")
  in
  let worker_stats =
    Arg.(value & flag & info [ "worker-stats" ]
           ~doc:"Print per-worker utilisation after each property.")
  in
  let slice =
    Arg.(value & flag & info [ "slice" ]
           ~doc:"Slice the automaton (drop dead rules and unreachable locations) before \
                 building the schema universe; outcomes and witnesses are unchanged.")
  in
  let force =
    Arg.(value & flag & info [ "force" ]
           ~doc:"Verify even when the static analyzer reports error-level diagnostics.")
  in
  let emit_certs =
    Arg.(value & opt (some string) None
         & info [ "emit-certs" ] ~docv:"FILE"
             ~doc:"Re-prove every UNSAT verdict on the certifying solver and append one \
                   JSON line per certificate to this file, replayable with \
                   $(b,holistic check-cert).  Forces the sequential engine (--jobs 1).")
  in
  let run model spec_name broken max_schemas budget jobs static worker_stats
      slice force checkpoint resume checkpoint_every emit_certs memo cache
      portfolio_check =
    gate ~force ~broken model;
    install_interrupt_handlers ();
    ensure_checkpoint_dir checkpoint;
    let portfolio = setup_portfolio ~memo ~cache ~check:portfolio_check in
    let ta = automaton_of ~broken model in
    let specs = find_specs model spec_name in
    let ta =
      if slice then
        fst (Analysis.slice ~keep:(List.concat_map Analysis.spec_locations specs) ta)
      else ta
    in
    let limits =
      { Holistic.Checker.default_limits with max_schemas; time_budget = budget; jobs; static }
    in
    let cert_oc = Option.map open_out emit_certs in
    let certs = Option.map Holistic.Certs.create cert_oc in
    (* The broken-resilience variant is a different automaton, so it must
       not share checkpoint files with the sound one (the fingerprint
       check would reject them anyway — fail early with distinct names). *)
    let ta_key = if broken then model_key model ^ "-broken" else model_key model in
    let u = Holistic.Universe.build ta in
    List.iter
      (fun spec ->
        let checkpoint =
          Option.map (fun dir -> Report.checkpoint_file ~dir ta_key spec) checkpoint
        in
        let r =
          with_input_errors (fun () ->
              Holistic.Checker.verify_with_universe ~limits ?checkpoint
                ~checkpoint_every ~resume ?certs ?portfolio u spec)
        in
        Format.printf "%a@." Holistic.Checker.pp_result r;
        if worker_stats then Format.printf "%a@?" Holistic.Checker.pp_worker_stats r)
      specs;
    save_portfolio ~cache portfolio;
    (match (emit_certs, certs, cert_oc) with
    | Some path, Some sink, Some oc ->
      close_out oc;
      Format.printf "certificates: %d emitted, %d failed, %d certifying steps -> %s@."
        (Holistic.Certs.emitted sink) (Holistic.Certs.failed sink)
        (Holistic.Certs.cert_steps sink) path
    | _ -> ());
    interrupt_exit ();
    match certs with
    | Some sink when Holistic.Certs.failed sink > 0 -> exit 3
    | _ -> ()
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:"Verify properties for all parameters n > 3t, t >= f >= 0 (the paper's \
             parameterized model checking).")
    Term.(const run $ model_arg $ spec_arg $ broken $ max_schemas $ budget $ jobs
          $ static_arg $ worker_stats $ slice $ force $ checkpoint_arg
          $ resume_arg $ checkpoint_every_arg $ emit_certs $ memo_arg $ cache_arg
          $ portfolio_check_arg)

(* --- explicit ------------------------------------------------------ *)

let explicit_cmd =
  let p name default doc = Arg.(value & opt int default & info [ name ] ~doc) in
  let run model spec_name n t f =
    let ta = automaton_of model in
    let params = [ ("n", n); ("t", t); ("f", f) ] in
    List.iter
      (fun spec ->
        let out = Explicit.check ta spec params in
        Format.printf "%-14s %a@." spec.Ta.Spec.name Explicit.pp_outcome out)
      (find_specs model spec_name)
  in
  Cmd.v
    (Cmd.info "explicit"
       ~doc:"Explicit-state checking for fixed parameters (the Apalache/TLC-style \
             baseline the paper contrasts with).")
    Term.(const run $ model_arg $ spec_arg $ p "n" 4 "processes" $ p "t" 1 "fault bound"
          $ p "f" 1 "actual faults")

(* --- dot ----------------------------------------------------------- *)

let dot_cmd =
  let output =
    Arg.(value & opt (some string) None & info [ "o"; "output" ] ~docv:"FILE"
           ~doc:"Output file (default: stdout).")
  in
  let format =
    Arg.(value & opt string "dot" & info [ "format" ] ~docv:"FMT"
           ~doc:"Export format: dot (Graphviz) or bymc (ByMC skeleton).")
  in
  let run model output format =
    let ta = automaton_of model in
    let render =
      match format with
      | "dot" -> Ta.Dot.render
      | "bymc" -> Ta.Bymc.render
      | f -> failwith ("unknown format " ^ f)
    in
    match output with
    | None -> print_string (render ta)
    | Some path ->
      let oc = open_out path in
      output_string oc (render ta);
      close_out oc;
      Printf.printf "wrote %s\n" path
  in
  Cmd.v
    (Cmd.info "dot"
       ~doc:"Export an automaton as Graphviz DOT (regenerates Figures 2-4) or as a ByMC \
             skeleton.")
    Term.(const run $ model_arg $ output $ format)

(* --- simulate ------------------------------------------------------ *)

let simulate_cmd =
  let n = Arg.(value & opt int 4 & info [ "n" ] ~doc:"number of processes") in
  let t = Arg.(value & opt int 1 & info [ "t" ] ~doc:"fault bound") in
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"scheduler seed") in
  let inputs =
    Arg.(value & opt (list int) [ 0; 1; 0 ] & info [ "inputs" ] ~docv:"BITS"
           ~doc:"comma-separated inputs of the correct processes")
  in
  let byz =
    Arg.(value & opt (some string) (Some "equivocate")
         & info [ "byzantine" ] ~docv:"STRATEGY"
             ~doc:"byzantine strategy for the last process: none, silent, equivocate, noise")
  in
  let run n t seed inputs byz =
    let byzantine =
      match byz with
      | None | Some "none" -> []
      | Some "silent" -> [ (n - 1, Dbft.Byzantine.Silent) ]
      | Some "equivocate" -> [ (n - 1, Dbft.Byzantine.Equivocate) ]
      | Some "noise" -> [ (n - 1, Dbft.Byzantine.Noise seed) ]
      | Some s -> failwith ("unknown strategy " ^ s)
    in
    let report =
      Dbft.Runner.run
        (Dbft.Runner.config ~n ~t ~inputs ~byzantine
           ~scheduler:(Simnet.Scheduler.random ~seed) ())
    in
    Format.printf "%a@." Dbft.Runner.pp_report report
  in
  Cmd.v
    (Cmd.info "simulate"
       ~doc:"Run the executable DBFT binary consensus on the simulated asynchronous \
             network.")
    Term.(const run $ n $ t $ seed $ inputs $ byz)

(* --- lemma7 -------------------------------------------------------- *)

let lemma7_cmd =
  let rounds = Arg.(value & opt int 10 & info [ "rounds" ] ~doc:"rounds to run") in
  let fair = Arg.(value & flag & info [ "fair" ] ~doc:"use a fair random scheduler instead") in
  let run rounds fair =
    let cfg = Dbft.Lemma7.config ~max_round:rounds in
    let cfg =
      if fair then { cfg with scheduler = Simnet.Scheduler.random ~seed:5 } else cfg
    in
    let report = Dbft.Runner.run cfg in
    Format.printf "%a@." Dbft.Runner.pp_report report;
    if (not fair) && report.Dbft.Runner.decisions = [] then
      Format.printf
        "no decision in %d rounds: the Lemma 7 adversary defeats the algorithm without \
         the fairness assumption@."
        rounds
  in
  Cmd.v
    (Cmd.info "lemma7"
       ~doc:"Run the paper's Appendix B non-termination adversary (Lemma 7).")
    Term.(const run $ rounds $ fair)


(* --- fuzz ----------------------------------------------------------- *)

let fuzz_cmd =
  let seed = Arg.(value & opt int 1 & info [ "seed" ] ~doc:"campaign seed") in
  let runs = Arg.(value & opt int 100 & info [ "runs" ] ~doc:"number of generated runs") in
  let profile =
    Arg.(value & opt string "conforming"
         & info [ "profile" ] ~docv:"PROFILE"
             ~doc:"scenario profile: conforming, broken or mixed")
  in
  let json = Arg.(value & flag & info [ "json" ] ~doc:"emit the report as one JSON line") in
  let replay =
    Arg.(value & opt (some file) None
         & info [ "replay" ] ~docv:"TRACE"
             ~doc:"re-execute a recorded trace (JSON file) instead of fuzzing, and \
                   re-check every oracle on it")
  in
  let save =
    Arg.(value & opt (some string) None
         & info [ "save-failure" ] ~docv:"PATH"
             ~doc:"write the first shrunk failing trace to this file")
  in
  let print_verdicts verdicts =
    List.iter
      (fun (name, v) ->
        match v with
        | Fuzz.Oracle.Pass -> Printf.printf "%-16s pass\n" name
        | Fuzz.Oracle.Fail why -> Printf.printf "%-16s FAIL: %s\n" name why
        | Fuzz.Oracle.Skip why -> Printf.printf "%-16s skip (%s)\n" name why)
      verdicts
  in
  let run_replay path json =
    let contents =
      match
        let ic = open_in_bin path in
        Fun.protect ~finally:(fun () -> close_in ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      with
      | exception Sys_error e -> input_error "--replay %s is unreadable: %s" path e
      | c -> c
    in
    let tr =
      try Fuzz.Trace.of_string contents
      with e ->
        input_error "--replay %s is not a recorded trace (%s)" path
          (Printexc.to_string e)
    in
    let outcome = Fuzz.Exec.replay ~strict:true tr in
    let verdicts = Fuzz.Oracle.check tr.Fuzz.Trace.scenario outcome in
    if json then
      print_endline
        (Fuzz.Json.to_string
           (Fuzz.Json.Obj
              (List.map
                 (fun (name, v) -> (name, Fuzz.Json.Str (Fuzz.Oracle.verdict_name v)))
                 verdicts)))
    else print_verdicts verdicts;
    exit (if List.exists (fun (_, v) -> Fuzz.Oracle.is_fail v) verdicts then 1 else 0)
  in
  let run seed runs profile json replay save =
    match replay with
    | Some path -> run_replay path json
    | None ->
      let profile =
        match Fuzz.Campaign.profile_of_string profile with
        | Some p -> p
        | None -> failwith ("unknown profile " ^ profile)
      in
      let report = Fuzz.Campaign.campaign ~seed ~runs ~profile () in
      (match (save, report.Fuzz.Campaign.violations) with
       | Some path, v :: _ ->
         let oc = open_out_bin path in
         Fun.protect ~finally:(fun () -> close_out oc)
           (fun () -> output_string oc (Fuzz.Trace.to_string v.Fuzz.Campaign.trace))
       | _ -> ());
      if json then print_endline (Fuzz.Campaign.report_to_string report)
      else begin
        Printf.printf "fuzz: seed %d, %d %s runs\n" seed runs
          (Fuzz.Campaign.profile_to_string profile);
        List.iter
          (fun (name, (p, f, s)) ->
            if p + f + s > 0 then
              Printf.printf "  %-16s pass %-5d fail %-5d skip %d\n" name p f s)
          report.Fuzz.Campaign.oracle_counts;
        List.iter
          (fun (v : Fuzz.Campaign.violation) ->
            Printf.printf "  violation (run %d) %s: %s — shrunk %d -> %d events\n"
              v.Fuzz.Campaign.run v.Fuzz.Campaign.oracle v.Fuzz.Campaign.detail v.Fuzz.Campaign.original_events
              v.Fuzz.Campaign.shrunk_events)
          report.Fuzz.Campaign.violations;
        List.iter
          (fun (run, (d : Fuzz.Crossval.divergence)) ->
            Printf.printf "  DIVERGENCE (run %d): %s\n" run d.Fuzz.Crossval.detail)
          report.Fuzz.Campaign.divergences;
        Printf.printf "  %d runs cross-validated against the explicit checker\n"
          report.Fuzz.Campaign.crossval_runs
      end;
      let bad =
        List.exists (fun (_, (_, f, _)) -> f > 0) report.Fuzz.Campaign.oracle_counts
        || report.Fuzz.Campaign.divergences <> []
      in
      exit (if bad then 1 else 0)
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:"Conformance-fuzz the executable DBFT/bv-broadcast implementation against \
             the paper's properties: seeded scenario generation with fault injection \
             (drops, duplication, bounded delay, healing partitions, Byzantine \
             placement), trace recording and shrinking, and cross-validation of small \
             runs against the explicit-state checker.  Exit code 1 when a violation or \
             a checker divergence is found.")
    Term.(const run $ seed $ runs $ profile $ json $ replay $ save)

(* --- check-cert ----------------------------------------------------- *)

let check_cert_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
           ~doc:"JSONL certificate file produced by $(b,holistic verify --emit-certs).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON summary object.")
  in
  let run path json =
    let module J = Jsonc in
    let ic = open_in path in
    let lines = ref [] in
    (try
       while true do
         let l = input_line ic in
         if String.trim l <> "" then lines := l :: !lines
       done
     with End_of_file -> close_in ic);
    let lines = List.rev !lines in
    let t0 = Unix.gettimeofday () in
    let schemas = ref 0 and prefixes = ref 0 and statics = ref 0 in
    let span = ref 0 and failed = ref 0 in
    List.iteri
      (fun i line ->
        let fail msg =
          incr failed;
          Printf.eprintf "check-cert: line %d: %s\n" (i + 1) msg
        in
        match
          let j = J.of_string line in
          let kind = J.to_str (J.member "kind" j) in
          let atoms =
            List.map Smt.Certificate.atom_of_json (J.to_list (J.member "atoms" j))
          in
          let branches =
            if kind = "schema" then
              List.map
                (fun alts ->
                  List.map
                    (fun cube ->
                      List.map Smt.Certificate.atom_of_json (J.to_list cube))
                    (J.to_list alts))
                (J.to_list (J.member "branches" j))
            else []
          in
          let cert = Smt.Certificate.of_json (J.member "cert" j) in
          (kind, atoms, branches, cert, j)
        with
        | exception J.Parse_error msg -> fail ("malformed line: " ^ msg)
        | kind, atoms, branches, cert, j -> (
          (match kind with
          | "schema" ->
            incr schemas;
            incr span
          | "prefix" ->
            incr prefixes;
            span := !span + J.to_int (J.member "span" j)
          | "static" ->
            incr statics;
            span := !span + J.to_int (J.member "span" j)
          | k -> fail ("unknown certificate kind " ^ k));
          match Smt.Certcheck.validate_query ~atoms ~branches cert with
          | Ok () -> ()
          | Error msg -> fail ("rejected: " ^ msg)))
      lines;
    let time = Unix.gettimeofday () -. t0 in
    if json then
      print_endline
        (J.to_string
           (J.Obj
              [
                ("file", J.Str path);
                ("certificates", J.Int (List.length lines));
                ("schemas", J.Int !schemas);
                ("prefixes", J.Int !prefixes);
                ("statics", J.Int !statics);
                ("positions_covered", J.Int !span);
                ("failed", J.Int !failed);
                ("check_time_us", J.Int (int_of_float (time *. 1e6)));
              ]))
    else
      Printf.printf
        "check-cert: %d certificates (%d schemas, %d pruned prefixes, %d static prunes; \
         %d enumeration positions covered), %d rejected, %.3f s\n"
        (List.length lines) !schemas !prefixes !statics !span !failed time;
    exit (if !failed > 0 then 1 else 0)
  in
  Cmd.v
    (Cmd.info "check-cert"
       ~doc:"Replay a certificate file against the standalone checker (exact rational \
             arithmetic, no solver code): every line must refute its recorded query.  \
             Exit code 1 when any certificate is rejected or malformed.")
    Term.(const run $ file $ json)

(* --- table2 -------------------------------------------------------- *)

let table2_cmd =
  let quick = Arg.(value & flag & info [ "quick" ] ~doc:"Skip the slowest rows.") in
  let budget =
    Arg.(value & opt float 60.0 & info [ "naive-budget" ] ~docv:"SECONDS"
           ~doc:"Time budget per naive-consensus row before aborting.")
  in
  let format =
    Arg.(value & opt string "text" & info [ "format" ] ~docv:"FMT"
           ~doc:"Output format: text, markdown or csv.")
  in
  let jobs =
    Arg.(value & opt int (Domain.recommended_domain_count ())
         & info [ "j"; "jobs" ] ~docv:"N"
             ~doc:"Worker domains discharging schema queries (the rows are identical for \
                   any N; only wall-clock changes).")
  in
  let slice =
    Arg.(value & flag & info [ "slice" ]
           ~doc:"Slice the automata before building the schema universes (rows are \
                 unchanged; universes may shrink).")
  in
  let force =
    Arg.(value & flag & info [ "force" ]
           ~doc:"Run even when the static analyzer reports error-level diagnostics.")
  in
  let zoo =
    Arg.(value & flag & info [ "zoo" ]
           ~doc:"Append one Table-2-style row per (model-zoo entry, property) after \
                 the paper rows (paper-time column is \"-\").")
  in
  let run quick budget format jobs static slice force zoo checkpoint resume
      checkpoint_every memo cache portfolio_check =
    List.iter (gate ~force) [ Bv; Naive; Simplified ];
    if zoo then
      List.iter (fun e -> gate ~force (ZooEntry e)) Models.Zoo.entries;
    install_interrupt_handlers ();
    ensure_checkpoint_dir checkpoint;
    let portfolio = setup_portfolio ~memo ~cache ~check:portfolio_check in
    let limits = { Holistic.Checker.default_limits with jobs; static } in
    let rows =
      with_input_errors (fun () ->
          Report.table2 ~limits ~slice ?checkpoint_dir:checkpoint ~resume
            ~checkpoint_every ?portfolio ~quick ~naive_budget:budget ()
          @
          if zoo then
            Report.zoo_rows ~limits ~slice ?checkpoint_dir:checkpoint ~resume
              ~checkpoint_every ?portfolio ()
          else [])
    in
    (match format with
     | "text" -> Report.print_text stdout rows
     | "markdown" | "md" -> print_string (Report.to_markdown rows)
     | "csv" -> print_string (Report.to_csv rows)
     | f -> failwith ("unknown format " ^ f));
    save_portfolio ~cache portfolio;
    interrupt_exit ()
  in
  Cmd.v
    (Cmd.info "table2" ~doc:"Regenerate the paper's Table 2 (also see bench/main.exe).")
    Term.(const run $ quick $ budget $ format $ jobs $ static_arg
          $ slice $ force $ zoo $ checkpoint_arg $ resume_arg $ checkpoint_every_arg
          $ memo_arg $ cache_arg $ portfolio_check_arg)

(* --- serve / submit / daemon ---------------------------------------- *)

(* The verification daemon (lib/service): a coordinator process farms
   contiguous schema-preorder slices of each submitted job to forked,
   supervised worker processes.  Exit-code contract of the clients:
   5 when no daemon is listening at --state, 4 on a bad request
   (unknown model/property/job id). *)

let state_arg =
  Arg.(value & opt string ".holistic-daemon"
       & info [ "state" ] ~docv:"DIR"
           ~doc:"Daemon state directory: Unix-domain socket, job manifest and \
                 checkpoint journals (default: ./.holistic-daemon).")

let failpoint_conv =
  let parse s =
    match Service.Worker.failpoint_of_string s with
    | Ok f -> Ok f
    | Error e -> Error (`Msg e)
  in
  let print fmt f = Format.pp_print_string fmt (Service.Worker.failpoint_to_string f) in
  Arg.conv (parse, print)

let serve_cmd =
  let workers =
    Arg.(value & opt int (max 1 (Domain.recommended_domain_count () - 1))
         & info [ "workers" ] ~docv:"N"
             ~doc:"Worker processes (forked, supervised; killed workers are respawned \
                   and their in-flight slice is re-queued).")
  in
  let slice_size =
    Arg.(value & opt int 64 & info [ "slice-size" ] ~docv:"N"
           ~doc:"Positions per work slice.")
  in
  let worker_ckpt_every =
    Arg.(value & opt int 16 & info [ "worker-ckpt-every" ] ~docv:"N"
           ~doc:"Slice checkpoint cadence: a killed worker loses at most N-1 positions \
                 of its in-flight slice.")
  in
  let retry_budget =
    Arg.(value & opt int 3 & info [ "retry-budget" ] ~docv:"N"
           ~doc:"Crashes a slice may suffer without durable progress before its \
                 frontier position is quarantined (the job then degrades to the \
                 fail-soft partial verdict).")
  in
  let hb_timeout =
    Arg.(value & opt float 30.0 & info [ "heartbeat-timeout" ] ~docv:"SECONDS"
           ~doc:"SIGKILL a worker whose reported position stalls this long.")
  in
  let hb_interval =
    Arg.(value & opt float 0.5 & info [ "hb-interval" ] ~docv:"SECONDS"
           ~doc:"Worker heartbeat period.")
  in
  let failpoints =
    Arg.(value & opt_all failpoint_conv []
         & info [ "failpoint" ] ~docv:"SPEC"
             ~doc:"Deterministic fault injection in every worker (repeatable): \
                   worker-crash:N (SIGKILL itself before every Nth discharge), \
                   worker-crash-at:POS, worker-raise-at:POS, worker-hang-at:POS.")
  in
  let cache =
    Arg.(value & opt (some string) None
         & info [ "cache" ] ~docv:"FILE"
             ~doc:"Shared persistent discharge cache: each worker loads it at spawn \
                   and merges its new entries back under a lock file after every \
                   slice.")
  in
  let max_schemas =
    Arg.(value & opt int 100_000 & info [ "max-schemas" ] ~docv:"N"
           ~doc:"Default schema budget for jobs that do not specify one.")
  in
  let run state workers slice_size worker_ckpt_every retry_budget hb_timeout hb_interval
      failpoints cache max_schemas =
    check_cache_readable cache;
    let cfg =
      {
        Service.Coordinator.state_dir = state;
        nworkers = max 1 workers;
        slice_size = max 1 slice_size;
        retry_budget = max 0 retry_budget;
        hb_timeout;
        default_cap = max_schemas;
        worker =
          {
            Service.Worker.cache_path = cache;
            ckpt_every = max 1 worker_ckpt_every;
            hb_interval;
            failpoints;
          };
      }
    in
    Service.Coordinator.serve cfg
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the fault-tolerant verification daemon: accept jobs over a \
             Unix-domain socket, shard each job's schema preorder into slices and \
             farm them to supervised worker processes.  Crashed or hung workers are \
             SIGKILLed and respawned, their slices re-queued with exponential \
             backoff; SIGTERM drains gracefully and a restarted daemon resumes to \
             bit-identical verdicts.")
    Term.(const run $ state_arg $ workers $ slice_size $ worker_ckpt_every
          $ retry_budget $ hb_timeout $ hb_interval $ failpoints $ cache $ max_schemas)

let submit_cmd =
  let max_schemas =
    Arg.(value & opt int 100_000 & info [ "max-schemas" ] ~docv:"N"
           ~doc:"Abort the job after this many schemas.")
  in
  let wait =
    Arg.(value & flag & info [ "wait" ]
           ~doc:"Block until every submitted job finishes and print one result row \
                 (JSON line) per job, in completion order.")
  in
  let local =
    Arg.(value & flag & info [ "local" ]
           ~doc:"Bypass the daemon: run the sequential checker in-process and print \
                 the identical result rows (the reference side of the daemon's \
                 bit-identical soundness gate).")
  in
  let run model spec_name state max_schemas wait local =
    if local then
      let ta = automaton_of model in
      let u = Holistic.Universe.build ta in
      let limits = { Holistic.Checker.default_limits with max_schemas } in
      List.iter
        (fun spec ->
          let r = Holistic.Checker.verify_with_universe ~limits u spec in
          print_endline
            (Jsonc.to_string (Service.Protocol.row_of_result ~model:(model_key model) r)))
        (find_specs model spec_name)
    else
      match Service.Client.connect ~state_dir:state () with
      | Error e ->
        prerr_endline ("holistic submit: " ^ e);
        exit 5
      | Ok c -> (
        match
          Service.Client.submit c ~model:(model_key model) ?spec:spec_name ~max_schemas ()
        with
        | Error e ->
          prerr_endline ("holistic submit: " ^ e);
          Service.Client.close c;
          exit 4
        | Ok ids ->
          (if wait then
             match Service.Client.wait_jobs c ids with
             | Error e ->
               prerr_endline ("holistic submit: " ^ e);
               Service.Client.close c;
               exit 5
             | Ok rows ->
               List.iter (fun (_, row) -> print_endline (Jsonc.to_string row)) rows
           else List.iter (fun id -> Printf.printf "%d\n" id) ids);
          Service.Client.close c)
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit a verification job (one per property) to a running daemon and \
             print the job ids — or, with --wait, the result rows.  With --local, \
             run the sequential checker in-process instead and print byte-identical \
             rows for the same jobs.")
    Term.(const run $ model_arg $ spec_arg $ state_arg $ max_schemas $ wait $ local)

let daemon_cmd =
  let action =
    Arg.(required & pos 0 (some (enum [ ("status", `Status); ("shutdown", `Shutdown);
                                        ("cancel", `Cancel); ("ping", `Ping) ])) None
         & info [] ~docv:"ACTION" ~doc:"status, shutdown, cancel or ping.")
  in
  let id =
    Arg.(value & pos 1 (some int) None & info [] ~docv:"ID" ~doc:"Job id (cancel).")
  in
  let run action id state =
    match Service.Client.connect ~retries:3 ~state_dir:state () with
    | Error e ->
      prerr_endline ("holistic daemon: " ^ e);
      exit 5
    | Ok c ->
      let module J = Jsonc in
      let finish r =
        Service.Client.close c;
        match r with
        | Ok j ->
          print_endline (J.to_string j)
        | Error e ->
          prerr_endline ("holistic daemon: " ^ e);
          exit 4
      in
      (match action with
      | `Ping -> finish (Service.Client.request c (J.Obj [ ("t", J.Str "ping") ]))
      | `Status -> finish (Service.Client.request c (J.Obj [ ("t", J.Str "status") ]))
      | `Shutdown ->
        finish
          (Result.map (fun () -> J.Obj [ ("ok", J.Bool true) ]) (Service.Client.shutdown c))
      | `Cancel -> (
        match id with
        | None ->
          prerr_endline "holistic daemon: cancel needs a job id";
          exit 4
        | Some id ->
          finish
            (Service.Client.request c (J.Obj [ ("t", J.Str "cancel"); ("id", J.Int id) ]))))
  in
  Cmd.v
    (Cmd.info "daemon"
       ~doc:"Control a running verification daemon: status (jobs, workers and their \
             pids as JSON), cancel ID, shutdown (graceful drain), ping.")
    Term.(const run $ action $ id $ state_arg)

(* --- lint ----------------------------------------------------------- *)

let lint_cmd =
  let model_opt =
    Arg.(value & pos 0 (some model_conv) None & info [] ~docv:"MODEL"
           ~doc:"Threshold automaton to lint: bv, naive, simplified, benor or a \
                 model-zoo key (default: all four paper models plus every zoo entry).")
  in
  let broken =
    Arg.(value & flag & info [ "broken-resilience" ]
           ~doc:"Lint the simplified model under the weakened resilience condition \
                 n > 2t (its imported justice constraints then fail TA015).")
  in
  let json =
    Arg.(value & flag & info [ "json" ] ~doc:"Emit one JSON object per automaton.")
  in
  let run model_opt broken json =
    let zoo_models =
      (* The benor zoo entry is the legacy benor model; don't lint the
         same automaton twice. *)
      List.filter_map
        (fun (e : Models.Zoo.entry) ->
          if e.Models.Zoo.key = "benor" then None else Some (ZooEntry e))
        Models.Zoo.entries
    in
    let models =
      match model_opt with
      | Some m -> [ m ]
      | None -> [ Bv; Naive; Simplified; BenOr ] @ zoo_models
    in
    let code =
      List.fold_left
        (fun acc model ->
          let ta, diags = lint_diagnostics ~broken model in
          let name = lint_name model ta in
          if json then print_endline (Analysis.to_json ~ta_name:name diags)
          else begin
            let count s = List.length (List.filter (fun (d : Analysis.diagnostic) -> d.severity = s) diags) in
            Format.printf "%s: %d error(s), %d warning(s)%s@." name
              (count Analysis.Error) (count Analysis.Warning)
              (if diags = [] then " — clean" else "");
            List.iter (fun d -> Format.printf "  %a@." Analysis.pp d) diags
          end;
          max acc (severity_code (Analysis.max_severity diags)))
        0 models
    in
    exit code
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically analyze an automaton and its properties: soundness preconditions \
             of the schema method, resilience satisfiability, dead rules, unreachable \
             locations, unused shared variables, plus the abstract-interpretation \
             passes (TA017-TA024): statically false guards, starved rules and \
             locations, dominated guard atoms, trivial thresholds, constant-zero \
             shared variables, and invariant-fixpoint precision loss.  Exit-code \
             contract: the maximum severity over all linted automata — 0 when every \
             diagnostic is info-level or there are none, 1 when any warning fired, \
             2 when any error fired.  With $(b,--json), diagnostics are listed in a \
             stable (code, subject, message) order, so outputs diff cleanly across \
             runs.")
    Term.(const run $ model_opt $ broken $ json)

let () =
  let doc = "Holistic verification of the Red Belly blockchain consensus (reproduction)" in
  exit (Cmd.eval (Cmd.group (Cmd.info "holistic" ~doc)
                    [ info_cmd; lint_cmd; verify_cmd; check_cert_cmd; explicit_cmd;
                      dot_cmd; simulate_cmd; fuzz_cmd; lemma7_cmd; table2_cmd;
                      serve_cmd; submit_cmd; daemon_cmd ]))
