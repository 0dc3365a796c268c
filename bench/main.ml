(* Benchmark harness: regenerates the paper's experimental evaluation
   (Section 6).

   The paper's evaluation consists of one table (Table 2) plus one
   in-text result; Figures 1-4 are algorithm/automaton diagrams, which
   are regenerated as DOT files by `holistic dot` (see bin/).

   Sections:
   1. Table 2 - per (TA, property): TA size, #schemas, average schema
      length, wall-clock verification time.  The naive-consensus rows
      run under an explicit budget and abort, which is this
      reproduction's analogue of the paper's ">24h on 64 cores".
   2. The in-text counterexample: Inv1_0 under the broken resilience
      condition n > 2t, with generation time (paper: ~4 s).
   3. Bechamel micro-benchmarks of the components (ablations).

   Usage: dune exec bench/main.exe [-- --quick] [-- --naive-budget S] [-- --jobs N]
          [-- --slice] [-- --bench6-json PATH] [-- --bench7-json PATH]
          [-- --bench8-json PATH] [-- --bench9-json PATH]
          [-- --bench10-json PATH] [-- --daemon-bin PATH]
          [-- --checkpoint DIR] [-- --resume] [-- --checkpoint-every N] *)

let quick = Array.exists (( = ) "--quick") Sys.argv
let slice = Array.exists (( = ) "--slice") Sys.argv

let usage_fail flag value expected =
  Printf.eprintf "bench: %s expects %s, got %S\n" flag expected value;
  exit 2

(* Flag values live one slot after their flag.  Scanning starts at 1:
   slot 0 is the executable path, which must never match a flag name. *)
let flag_value name =
  let rec find i =
    if i >= Array.length Sys.argv then None
    else if Sys.argv.(i) = name then
      if i + 1 >= Array.length Sys.argv then
        usage_fail name "<missing>" "a value after the flag"
      else Some Sys.argv.(i + 1)
    else find (i + 1)
  in
  find 1

let naive_budget =
  match flag_value "--naive-budget" with
  | Some b -> (
    match float_of_string_opt b with
    | Some b -> b
    | None -> usage_fail "--naive-budget" b "a number of seconds")
  | None -> if quick then 5.0 else 60.0

let jobs =
  match flag_value "--jobs" with
  | Some n -> (
    match int_of_string_opt n with
    | Some n when n >= 1 -> n
    | _ -> usage_fail "--jobs" n "a positive integer")
  | None -> Domain.recommended_domain_count ()

(* One limits value carries every budget; the sections below derive
   their variants (jobs=1, no static discharge, ...) from it instead of
   restating literals. *)
let limits = { Holistic.Checker.default_limits with jobs }

(* Crash-safe Table 2: --checkpoint DIR persists one journal per row;
   --resume fast-forwards each row past its checkpointed frontier.
   SIGINT/SIGTERM flush the checkpoints and exit 130 (see lib/core). *)
let checkpoint_dir = flag_value "--checkpoint"

let resume = Array.exists (( = ) "--resume") Sys.argv

let checkpoint_every =
  match flag_value "--checkpoint-every" with
  | Some n -> (
    match int_of_string_opt n with
    | Some n when n >= 1 -> n
    | _ -> usage_fail "--checkpoint-every" n "a positive integer")
  | None -> 64

(* ------------------------------------------------------------------ *)
(* Section 1: Table 2 (see lib/report).                                 *)

let table2 () =
  print_endline "== Table 2: parameterized verification of the blockchain consensus ==";
  print_endline "   (every property is checked for all n > 3t, t >= f >= 0)";
  print_newline ();
  let rows =
    Report.table2 ~limits ~slice ?checkpoint_dir ~resume ~checkpoint_every ~quick
      ~naive_budget ()
  in
  Report.print_text stdout rows;
  print_newline ();
  (* Also emit machine-readable copies next to the build tree. *)
  let write path contents =
    let oc = open_out path in
    output_string oc contents;
    close_out oc;
    Printf.printf "(wrote %s)\n" path
  in
  write "table2.md" (Report.to_markdown rows);
  write "table2.csv" (Report.to_csv rows);
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 2: the broken-resilience counterexample (paper: ~4 s).       *)

let counterexample () =
  print_endline "== In-text result: counterexample to Inv1_0 when the resilience";
  print_endline "   condition is weakened to n > 2t (paper reports ~4 s) ==";
  let t0 = Unix.gettimeofday () in
  let r =
    Holistic.Checker.verify Models.Simplified_ta.automaton_broken_resilience
      Models.Simplified_ta.inv1_0
  in
  (match r.outcome with
   | Holistic.Checker.Violated w ->
     Printf.printf
       "found in %.2fs with parameters %s (disagreement: D0 and D1 both reached)\n"
       (Unix.gettimeofday () -. t0)
       (String.concat ", "
          (List.map (fun (p, v) -> Printf.sprintf "%s=%d" p v) w.Holistic.Witness.params))
   | _ -> print_endline "UNEXPECTED: no counterexample found");
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 2b: multicore scaling — the same property checked by the
   sequential engine and by the domain pool, with per-worker
   utilisation.  Outcomes and schema counts are bit-identical by
   construction (see lib/core/pool.mli); only wall-clock differs.       *)

let speedup () =
  if jobs <= 1 then
    print_endline "== Parallel speedup: skipped (running with --jobs 1) =="
  else begin
    Printf.printf "== Parallel speedup: jobs=1 vs jobs=%d ==\n" jobs;
    (* In quick mode use the fast bv-broadcast property so the section
       stays cheap; the full run uses a simplified-consensus row, whose
       2,116 larger queries are where parallelism pays. *)
    let ta, spec =
      if quick then (Models.Bv_ta.automaton, List.hd Models.Bv_ta.table2_specs)
      else (Models.Simplified_ta.automaton, Models.Simplified_ta.inv2_0)
    in
    let u = Holistic.Universe.build ta in
    let run n =
      let limits = { limits with Holistic.Checker.jobs = n } in
      Holistic.Checker.verify_with_universe ~limits u spec
    in
    let seq = run 1 in
    let par = run jobs in
    Format.printf "%a@." Holistic.Checker.pp_result seq;
    Format.printf "%a@." Holistic.Checker.pp_result par;
    Format.printf "%a@?" Holistic.Checker.pp_worker_stats par;
    let same =
      seq.Holistic.Checker.stats.schemas_checked = par.Holistic.Checker.stats.schemas_checked
      && seq.stats.slots_total = par.stats.slots_total
    in
    Printf.printf "deterministic: %s; speedup: %.2fx\n"
      (if same then "yes (same schemas, same slots)" else "NO — ENGINE BUG")
      (seq.stats.time /. par.stats.time)
  end;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 2d: certificate emission and standalone replay, per bundled
   property (jobs=1).  The run re-proves every UNSAT verdict on the
   certifying engine and the emitted JSONL is replayed by Smt.Certcheck
   (exact rationals, no solver code).  The records go to BENCH_6.json
   for CI's gates: no certification failures and no rejected
   certificates. *)

let outcome_string (r : Holistic.Checker.result) =
  match r.outcome with
  | Holistic.Checker.Holds -> "holds"
  | Holistic.Checker.Violated _ -> "violated"
  | Holistic.Checker.Aborted _ -> "aborted"
  | Holistic.Checker.Partial _ -> "partial"

let bench6_json_path =
  match flag_value "--bench6-json" with Some p -> p | None -> "BENCH_6.json"

let replay_certificates path =
  let module J = Jsonc in
  let ic = open_in path in
  let lines = ref [] in
  (try
     while true do
       let l = input_line ic in
       if String.trim l <> "" then lines := l :: !lines
     done
   with End_of_file -> close_in ic);
  let t0 = Unix.gettimeofday () in
  let rejected =
    List.fold_left
      (fun bad line ->
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
                  (fun cube -> List.map Smt.Certificate.atom_of_json (J.to_list cube))
                  (J.to_list alts))
              (J.to_list (J.member "branches" j))
          else []
        in
        match
          Smt.Certcheck.validate_query ~atoms ~branches
            (Smt.Certificate.of_json (J.member "cert" j))
        with
        | Ok () -> bad
        | Error _ -> bad + 1)
      0 (List.rev !lines)
  in
  (List.length !lines, rejected, Unix.gettimeofday () -. t0)

let certificates () =
  print_endline "== Certificate emission and standalone replay (jobs=1) ==";
  let cases =
    List.map (fun s -> ("bv", Models.Bv_ta.automaton, s)) Models.Bv_ta.table2_specs
    @ List.map
        (fun s -> ("simplified", Models.Simplified_ta.automaton, s))
        (if quick then [ Models.Simplified_ta.inv2_0; Models.Simplified_ta.good_0 ]
         else Models.Simplified_ta.table2_specs)
  in
  let records = ref [] in
  Printf.printf "%-14s %-12s %10s %10s %6s %8s %9s\n" "TA" "Property" "steps"
    "cert-steps" "certs" "rejected" "check-ms";
  List.iter
    (fun (ta_name, ta, spec) ->
      let u = Holistic.Universe.build ta in
      let path = Filename.temp_file "holistic_bench_certs" ".jsonl" in
      let oc = open_out path in
      let sink = Holistic.Certs.create oc in
      let r = Holistic.Checker.verify_with_universe ~limits ~certs:sink u spec in
      close_out oc;
      let certs, rejected, check_t = replay_certificates path in
      Sys.remove path;
      records :=
        Printf.sprintf
          {|    {"ta": %S, "property": %S, "outcome": %S, "schemas": %d, "skipped": %d, "core_prunes": %d, "steps": %d, "cert_steps": %d, "certificates": %d, "emit_failed": %d, "rejected": %d, "check_time_us": %d}|}
          ta_name spec.Ta.Spec.name (outcome_string r)
          r.Holistic.Checker.stats.schemas_checked r.stats.schemas_skipped
          r.stats.core_prunes r.stats.solver_steps
          (Holistic.Certs.cert_steps sink)
          certs
          (Holistic.Certs.failed sink)
          rejected
          (int_of_float (check_t *. 1e6))
        :: !records;
      Printf.printf "%-14s %-12s %10d %10d %6d %8d %8.1f\n%!" ta_name
        spec.Ta.Spec.name r.Holistic.Checker.stats.solver_steps
        (Holistic.Certs.cert_steps sink)
        certs rejected (check_t *. 1e3))
    cases;
  let oc = open_out bench6_json_path in
  Printf.fprintf oc "{\n  \"jobs\": 1,\n  \"mode\": %S,\n  \"results\": [\n%s\n  ]\n}\n"
    (if quick then "quick" else "full")
    (String.concat ",\n" (List.rev !records));
  close_out oc;
  Printf.printf "(wrote %s)\n" bench6_json_path;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 2e: static discharge ablation, per bundled property
   (jobs=1).  The invariant engine's certified refutations
   must not change any observable of the verification — verdict,
   schema count, slot total — while the solver-step count can only
   shrink (statically refuted subtrees are skipped at zero steps).
   The records go to BENCH_7.json for CI's gates: every row agrees,
   static steps never exceed non-static steps, and the simplified
   model shows at least one static prune. *)

let bench7_json_path =
  match flag_value "--bench7-json" with Some p -> p | None -> "BENCH_7.json"

let static_comparison () =
  print_endline "== Static discharge vs full solving (jobs=1) ==";
  let cases =
    List.map (fun s -> ("bv", Models.Bv_ta.automaton, s)) Models.Bv_ta.table2_specs
    @ List.map
        (fun s -> ("simplified", Models.Simplified_ta.automaton, s))
        (if quick then [ Models.Simplified_ta.inv2_0; Models.Simplified_ta.good_0 ]
         else Models.Simplified_ta.table2_specs)
  in
  let records = ref [] in
  Printf.printf "%-14s %-12s %12s %12s %7s %6s\n" "TA" "Property" "steps-nostatic"
    "steps-static" "statics" "agree";
  List.iter
    (fun (ta_name, ta, spec) ->
      let u = Holistic.Universe.build ta in
      let run static =
        let limits = { limits with Holistic.Checker.jobs = 1; static } in
        Holistic.Checker.verify_with_universe ~limits u spec
      in
      let plain = run false in
      let stat = run true in
      let agree =
        outcome_string plain = outcome_string stat
        && plain.Holistic.Checker.stats.schemas_checked = stat.Holistic.Checker.stats.schemas_checked
        && plain.stats.slots_total = stat.stats.slots_total
      in
      records :=
        Printf.sprintf
          {|    {"ta": %S, "property": %S, "outcome": %S, "schemas": %d, "slots": %d, "static_prunes": %d, "steps_nonstatic": %d, "steps_static": %d, "agree": %b}|}
          ta_name spec.Ta.Spec.name (outcome_string stat)
          stat.Holistic.Checker.stats.schemas_checked stat.stats.slots_total
          stat.stats.static_prunes plain.Holistic.Checker.stats.solver_steps
          stat.stats.solver_steps agree
        :: !records;
      Printf.printf "%-14s %-12s %12d %12d %7d %6s\n%!" ta_name spec.Ta.Spec.name
        plain.Holistic.Checker.stats.solver_steps stat.stats.solver_steps
        stat.stats.static_prunes
        (if agree then "yes" else "NO!"))
    cases;
  let oc = open_out bench7_json_path in
  Printf.fprintf oc "{\n  \"jobs\": 1,\n  \"mode\": %S,\n  \"results\": [\n%s\n  ]\n}\n"
    (if quick then "quick" else "full")
    (String.concat ",\n" (List.rev !records));
  close_out oc;
  Printf.printf "(wrote %s)\n" bench7_json_path;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 2f: discharge cache and portfolio (jobs=1).
   Three passes per bundled property: an uncached reference, a cold
   portfolio pass (one cache shared across every property, so later
   rows can hit entries earlier rows populated — cross-property reuse),
   and a warm rerun of the whole sweep against the populated cache.
   Verdicts, schema counts and slot totals must agree across all three
   passes; the warm pass answers repeated leaf discharges from the
   cache at zero solver steps.  The records go to BENCH_8.json for
   CI's gates: every row agrees, the warm solver-step total is at most
   half the uncached total, and the expensive simplified rows (Inv1_*,
   SRound-Term) complete in less wall-clock when warm. *)

let bench8_json_path =
  match flag_value "--bench8-json" with Some p -> p | None -> "BENCH_8.json"

let cache_comparison () =
  print_endline
    "== Discharge cache + portfolio: uncached vs cold vs warm (jobs=1) ==";
  let cases =
    List.map (fun s -> ("bv", Models.Bv_ta.automaton, s)) Models.Bv_ta.table2_specs
    @ List.map
        (fun s -> ("simplified", Models.Simplified_ta.automaton, s))
        (* Quick mode keeps the two rows CI's warm-wall-clock gate
           names; the full run sweeps all of Table 2's simplified
           properties. *)
        (if quick then [ Models.Simplified_ta.inv1_0; Models.Simplified_ta.sround_term ]
         else Models.Simplified_ta.table2_specs)
  in
  let limits = { limits with Holistic.Checker.jobs = 1 } in
  let portfolio = Smt.Portfolio.create (Smt.Qcache.create ()) in
  (* Pass 1+2 per property: uncached reference, then cold (populating). *)
  let cold_runs =
    List.map
      (fun (ta_name, ta, spec) ->
        let u = Holistic.Universe.build ta in
        let uncached = Holistic.Checker.verify_with_universe ~limits u spec in
        let cold =
          Holistic.Checker.verify_with_universe ~limits ~portfolio u spec
        in
        (ta_name, u, spec, uncached, cold))
      cases
  in
  (* Pass 3 only after the cold sweep finished: every warm run sees the
     cache entries of all properties, not just its predecessors'. *)
  let records = ref [] in
  Printf.printf "%-14s %-12s %9s %9s %9s %11s %6s %7s %7s %7s %6s\n" "TA"
    "Property" "steps-unc" "steps-cold" "steps-warm" "warm-hits" "cross"
    "t-unc" "t-cold" "t-warm" "agree";
  List.iter
    (fun (ta_name, u, spec, uncached, cold) ->
      let warm = Holistic.Checker.verify_with_universe ~limits ~portfolio u spec in
      let agree =
        outcome_string uncached = outcome_string cold
        && outcome_string uncached = outcome_string warm
        && uncached.Holistic.Checker.stats.schemas_checked
           = cold.Holistic.Checker.stats.schemas_checked
        && uncached.stats.schemas_checked = warm.stats.schemas_checked
        && uncached.stats.slots_total = cold.stats.slots_total
        && uncached.stats.slots_total = warm.stats.slots_total
      in
      let cc = cold.stats.cache and wc = warm.stats.cache in
      records :=
        Printf.sprintf
          {|    {"ta": %S, "property": %S, "outcome": %S, "agree": %b, "schemas": %d, "slots": %d, "steps_uncached": %d, "steps_cold": %d, "steps_warm": %d, "hits_cold": %d, "misses_cold": %d, "cross_cold": %d, "hits_warm": %d, "misses_warm": %d, "cross_warm": %d, "wins_interval": %d, "wins_cooper": %d, "wins_simplex": %d, "time_uncached": %.3f, "time_cold": %.3f, "time_warm": %.3f}|}
          ta_name spec.Ta.Spec.name (outcome_string warm) agree
          uncached.stats.schemas_checked uncached.stats.slots_total
          uncached.stats.solver_steps cold.stats.solver_steps
          warm.stats.solver_steps cc.Smt.Portfolio.hits cc.Smt.Portfolio.misses
          cc.Smt.Portfolio.cross wc.Smt.Portfolio.hits wc.Smt.Portfolio.misses
          wc.Smt.Portfolio.cross cc.Smt.Portfolio.w_interval
          cc.Smt.Portfolio.w_cooper cc.Smt.Portfolio.w_simplex
          uncached.stats.time cold.stats.time warm.stats.time
        :: !records;
      Printf.printf
        "%-14s %-12s %9d %9d %9d %5d/%-5d %6d %6.1fs %6.1fs %6.1fs %6s\n%!"
        ta_name spec.Ta.Spec.name uncached.stats.solver_steps
        cold.stats.solver_steps warm.stats.solver_steps wc.Smt.Portfolio.hits
        (wc.Smt.Portfolio.hits + wc.Smt.Portfolio.misses) cc.Smt.Portfolio.cross
        uncached.stats.time cold.stats.time warm.stats.time
        (if agree then "yes" else "NO!"))
    cold_runs;
  let oc = open_out bench8_json_path in
  Printf.fprintf oc "{\n  \"jobs\": 1,\n  \"mode\": %S,\n  \"results\": [\n%s\n  ]\n}\n"
    (if quick then "quick" else "full")
    (String.concat ",\n" (List.rev !records));
  close_out oc;
  Printf.printf "(wrote %s)\n" bench8_json_path;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 2g: the model zoo sweep.  Every Models.Zoo entry is verified
   against every registered property and compared with the registry's
   expected verdict; disagreement is an engine or registry bug.  The
   records go to BENCH_9.json for CI's zoo gates: every row agrees and
   every row is decided (no aborts — the zoo models are small by
   construction). *)

let bench9_json_path =
  match flag_value "--bench9-json" with Some p -> p | None -> "BENCH_9.json"

let zoo_sweep () =
  print_endline "== Model zoo: expected verdict per (entry, property) ==";
  let records = ref [] in
  Printf.printf "%-12s %-16s %-9s %-9s %9s %7s %7s %6s\n" "Entry" "Property"
    "expected" "outcome" "schemas" "steps" "time" "agree";
  List.iter
    (fun (e : Models.Zoo.entry) ->
      let u = Holistic.Universe.build e.Models.Zoo.automaton in
      List.iter
        (fun ((spec : Ta.Spec.t), expected) ->
          let r = Holistic.Checker.verify_with_universe ~limits u spec in
          let expected_s = Models.Zoo.verdict_to_string expected in
          let agree = outcome_string r = expected_s in
          records :=
            Printf.sprintf
              {|    {"ta": %S, "property": %S, "expected": %S, "outcome": %S, "agree": %b, "schemas": %d, "slots": %d, "solver_steps": %d, "time": %.3f}|}
              e.Models.Zoo.key spec.Ta.Spec.name expected_s (outcome_string r)
              agree r.Holistic.Checker.stats.schemas_checked r.stats.slots_total
              r.stats.solver_steps r.stats.time
            :: !records;
          Printf.printf "%-12s %-16s %-9s %-9s %9d %7d %6.2fs %6s\n%!"
            e.Models.Zoo.key spec.Ta.Spec.name expected_s (outcome_string r)
            r.stats.schemas_checked r.stats.solver_steps r.stats.time
            (if agree then "yes" else "NO!"))
        e.Models.Zoo.specs)
    Models.Zoo.entries;
  let oc = open_out bench9_json_path in
  Printf.fprintf oc "{\n  \"jobs\": %d,\n  \"mode\": %S,\n  \"results\": [\n%s\n  ]\n}\n"
    jobs
    (if quick then "quick" else "full")
    (String.concat ",\n" (List.rev !records));
  close_out oc;
  Printf.printf "(wrote %s)\n" bench9_json_path;
  print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 2h: daemon 1->N scaling.  Spawns the verification daemon
   (`holistic serve`) with 1, 2 and 4 workers, submits a batch of
   identical budget-capped jobs to each, and measures wall clock from
   first submit to last verdict.  Every daemon row must be
   byte-identical to the in-process sequential row — the speedup is
   only admissible because the verdict is provably unchanged.  The
   records go to BENCH_10.json for CI's daemon gate.  Requires the
   built CLI: pass --daemon-bin PATH (skipped otherwise, since the
   bench binary cannot assume its own build layout). *)

let bench10_json_path =
  match flag_value "--bench10-json" with Some p -> p | None -> "BENCH_10.json"

let daemon_bin = flag_value "--daemon-bin"

let daemon_scaling () =
  match daemon_bin with
  | None ->
    print_endline "== Daemon 1->N scaling: skipped (pass --daemon-bin PATH) ==";
    print_newline ()
  | Some bin ->
    print_endline "== Daemon 1->N scaling: sharded verification vs sequential ==";
    let model = "simplified" and spec_name = "Inv1_0" in
    let cap = if quick then 150 else 400 in
    let njobs = if quick then 4 else 8 in
    (* The one row every daemon job must reproduce byte-for-byte. *)
    let reference =
      match Service.Registry.find_specs model (Some spec_name) with
      | Error e ->
        Printf.eprintf "bench: %s\n" e;
        exit 2
      | Ok (ta, specs) ->
        let u = Holistic.Universe.build ta in
        let l = { Holistic.Checker.default_limits with jobs = 1; max_schemas = cap } in
        let r = Holistic.Checker.verify_with_universe ~limits:l u (List.hd specs) in
        Jsonc.to_string (Service.Protocol.row_of_result ~model r)
    in
    let state_root =
      Filename.concat (Filename.get_temp_dir_name ())
        (Printf.sprintf "holistic-bench10-%d" (Unix.getpid ()))
    in
    let sweep workers =
      let state_dir = Filename.concat state_root (string_of_int workers) in
      let args =
        [|
          bin; "serve"; "--state"; state_dir;
          "--workers"; string_of_int workers;
          "--slice-size"; "32"; "--worker-ckpt-every"; "16";
        |]
      in
      let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
      let pid = Unix.create_process bin args devnull devnull devnull in
      Unix.close devnull;
      Fun.protect
        ~finally:(fun () ->
          (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
          ignore (Unix.waitpid [] pid))
        (fun () ->
          match Service.Client.connect ~state_dir () with
          | Error e ->
            Printf.eprintf "bench: daemon (%d workers) unreachable: %s\n" workers e;
            exit 2
          | Ok c ->
            Fun.protect
              ~finally:(fun () -> Service.Client.close c)
              (fun () ->
                let t0 = Unix.gettimeofday () in
                let ids =
                  List.concat_map
                    (fun _ ->
                      match
                        Service.Client.submit c ~model ~spec:spec_name
                          ~max_schemas:cap ()
                      with
                      | Ok ids -> ids
                      | Error e ->
                        Printf.eprintf "bench: submit failed: %s\n" e;
                        exit 2)
                    (List.init njobs Fun.id)
                in
                let rows =
                  match Service.Client.wait_jobs c ids with
                  | Ok rows -> List.map (fun (_, r) -> Jsonc.to_string r) rows
                  | Error e ->
                    Printf.eprintf "bench: wait failed: %s\n" e;
                    exit 2
                in
                let wall = Unix.gettimeofday () -. t0 in
                let agree =
                  List.length rows = njobs
                  && List.for_all (String.equal reference) rows
                in
                (wall, agree)))
    in
    Printf.printf "%8s %6s %9s %8s %6s\n" "workers" "jobs" "wall" "speedup" "agree";
    let baseline = ref None in
    let records =
      List.map
        (fun workers ->
          let wall, agree = sweep workers in
          let base = match !baseline with None -> baseline := Some wall; wall | Some b -> b in
          let speedup = if wall > 0.0 then base /. wall else 0.0 in
          Printf.printf "%8d %6d %8.2fs %7.2fx %6s\n%!" workers njobs wall speedup
            (if agree then "yes" else "NO!");
          Printf.sprintf
            {|    {"workers": %d, "jobs": %d, "cap": %d, "wall_s": %.3f, "speedup": %.3f, "agree": %b}|}
            workers njobs cap wall speedup agree)
        [ 1; 2; 4 ]
    in
    let oc = open_out bench10_json_path in
    Printf.fprintf oc
      "{\n  \"model\": %S,\n  \"property\": %S,\n  \"mode\": %S,\n  \"results\": [\n%s\n  ]\n}\n"
      model spec_name
      (if quick then "quick" else "full")
      (String.concat ",\n" records);
    close_out oc;
    Printf.printf "(wrote %s)\n" bench10_json_path;
    print_newline ()

(* ------------------------------------------------------------------ *)
(* Section 3: Bechamel micro-benchmarks.                                *)

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
(* Section 4: pruning ablation — how much the guard implication order
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

let install_interrupt_handlers () =
  let handle = Sys.Signal_handle (fun _ -> Holistic.Checker.request_interrupt ()) in
  Sys.set_signal Sys.sigint handle;
  Sys.set_signal Sys.sigterm handle

let () =
  install_interrupt_handlers ();
  (match checkpoint_dir with
   | Some dir when not (Sys.file_exists dir) -> Sys.mkdir dir 0o755
   | _ -> ());
  Printf.printf
    "Reproduction of 'Holistic Verification of Blockchain Consensus' (DISC 2022)\n";
  Printf.printf "mode: %s; naive-TA budget: %.0fs; jobs: %d (of %d recommended)%s\n\n"
    (if quick then "quick" else "full")
    naive_budget jobs
    (Domain.recommended_domain_count ())
    (if slice then "; slicing enabled" else "");
  table2 ();
  if Holistic.Checker.interrupt_requested () then begin
    print_endline
      "interrupted — checkpoints flushed; rerun with --resume to continue Table 2";
    exit 130
  end;
  counterexample ();
  speedup ();
  certificates ();
  static_comparison ();
  cache_comparison ();
  zoo_sweep ();
  daemon_scaling ();
  micro ();
  ablation ();
  print_endline "done."
