(* Crash-safe resumption and fail-soft verification.

   The contract under test (lib/core/journal.ml + checker.ml): a run
   interrupted at any preorder position and resumed from its checkpoint
   reports the same verdict, witness, schema count and solver-step
   totals as an uninterrupted run — sequentially and pooled, with static
   discharge on and off.  Interruption is simulated with the
   deterministic schema cap (a "kill" at an exact position), with
   the cooperative interrupt flag, and with injected worker crashes
   ([?failpoint]), which must quarantine, not abort.

   The journal itself is pinned separately: canonical-JSON roundtrip,
   atomic save/load, and fingerprint validation (a checkpoint recorded
   for a different automaton/property pair must be refused). *)

module Ck = Holistic.Checker
module J = Holistic.Journal
module S = Ta.Spec

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let fresh_path =
  let counter = ref 0 in
  fun () ->
    incr counter;
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "holistic-resume-%d-%d.ckpt.json" (Unix.getpid ()) !counter)

let with_path f =
  let path = fresh_path () in
  Fun.protect ~finally:(fun () -> if Sys.file_exists path then Sys.remove path) (fun () -> f path)

let outcome_repr = function
  | Ck.Holds -> "holds"
  | Ck.Violated w -> Format.asprintf "violated@\n%a" Holistic.Witness.pp w
  | Ck.Aborted reason -> "aborted: " ^ reason
  | Ck.Partial { quarantined; reason } ->
    Format.asprintf "partial (%d quarantined): %s" (List.length quarantined) reason

(* Coverage statistics — which schemas were enumerated, skipped and
   pruned — must survive the kill exactly. Effort counters (prefix-cache
   hits, simplex pivot steps) and wall-clock times are not compared: a
   resumed run restarts its incremental session cold at the kill
   boundary and repartitions the remaining preorder span across workers,
   so cache warmth legitimately differs even though every verdict,
   witness and coverage count is identical. *)
let check_equiv name (base : Ck.result) (resumed : Ck.result) =
  Alcotest.(check string)
    (name ^ ": outcome/witness")
    (outcome_repr base.Ck.outcome) (outcome_repr resumed.Ck.outcome);
  let ints (r : Ck.result) =
    [
      ("schemas", r.Ck.stats.schemas_checked); ("skipped", r.Ck.stats.schemas_skipped);
      ("pruned", r.Ck.stats.subtrees_pruned); ("slots", r.Ck.stats.slots_total);
    ]
  in
  List.iter2
    (fun (k, b) (_, r) -> Alcotest.(check int) (name ^ ": " ^ k) b r)
    (ints base) (ints resumed)

(* The sequential and the pooled engine; coverage totals are only
   comparable within one engine configuration, which is all resumption
   needs. *)
let engines =
  [ ("seq", { Ck.default_limits with jobs = 1 }); ("par", { Ck.default_limits with jobs = 3 }) ]

(* The same two with static discharge off.  On a statically refuted
   property a static run's transcript is spanning records only, so these
   are the runs whose kills land among discharged schemas. *)
let nostatic_engines =
  List.map (fun (name, limits) -> (name ^ "-nostatic", { limits with Ck.static = false })) engines

(* (kind, position, span) of every certificate line; a schema line
   spans one position. *)
let cert_records path =
  let module Jc = Jsonc in
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line when String.trim line = "" -> go acc
    | line ->
      let j = Jc.of_string line in
      let kind = Jc.to_str (Jc.member "kind" j) in
      let span = if kind = "schema" then 1 else Jc.to_int (Jc.member "span" j) in
      go ((kind, Jc.to_int (Jc.member "position" j), span) :: acc)
  in
  go []

(* Run against checkpoint [path], with a certificate sink on sequential
   engines: the result and the certificate records. *)
let run_with_certs ~(limits : Ck.limits) ?resume ~path u spec =
  if limits.jobs > 1 then
    (Ck.verify_with_universe ~limits ~checkpoint:path ?resume u spec, [])
  else begin
    let certs_path = Filename.temp_file "holistic_certs" ".jsonl" in
    Fun.protect
      ~finally:(fun () -> Sys.remove certs_path)
      (fun () ->
        let oc = open_out certs_path in
        let sink = Holistic.Certs.create oc in
        let r =
          Ck.verify_with_universe ~limits ~checkpoint:path ?resume ~certs:sink u spec
        in
        close_out oc;
        (r, cert_records certs_path))
  end

let load_journal path =
  match J.load ~path with Ok j -> j | Error e -> Alcotest.failf "journal: %s" e

(* The journal less its wall-clock fields and prefix hits (a resumed
   session restarts its prefix cache cold). *)
let journal_repr (j : J.t) =
  Jsonc.to_string
    (J.to_json { j with encode_us = 0; solve_us = 0; elapsed_us = 0; hits = 0 })

let stats_repr (r : Ck.result) =
  let s = r.Ck.stats in
  Printf.sprintf "%s; schemas %d skipped %d pruned %d core %d static %d slots %d steps %d"
    (outcome_repr r.Ck.outcome) s.schemas_checked s.schemas_skipped s.subtrees_pruned
    s.core_prunes s.static_prunes s.slots_total s.solver_steps

(* Kill-and-resume: run to completion; rerun with the schema cap at
   [kill] (checkpointing every position), then resume without the cap.
   The resumed run must reproduce the uninterrupted one: outcome and
   coverage totals ({!check_equiv}), every count but prefix hits
   (solver steps included: the resumed slice discharges the same leaf
   queries), the final journal, and on sequential engines every
   certificate record at or past the frontier — the engine also
   re-records each pruned subtree it walks, whole, wherever the frontier
   falls in it. *)
let kill_resume_equiv name ~limits ?(kills = [ 1; 13 ]) u spec =
  let base, base_records, base_journal =
    with_path (fun path ->
        let r, records = run_with_certs ~limits ~path u spec in
        (r, records, load_journal path))
  in
  List.iter
    (fun kill ->
      let name = Printf.sprintf "%s kill@%d" name kill in
      with_path (fun path ->
          ignore
            (Ck.verify_with_universe
               ~limits:{ limits with Ck.max_schemas = min kill limits.Ck.max_schemas }
               ~checkpoint:path ~checkpoint_every:1 u spec);
          let resumed, resumed_records = run_with_certs ~limits ~resume:true ~path u spec in
          check_equiv name base resumed;
          Alcotest.(check string)
            (name ^ ": counts") (stats_repr base) (stats_repr resumed);
          Alcotest.(check string)
            (name ^ ": journal") (journal_repr base_journal)
            (journal_repr (load_journal path));
          Alcotest.(check (list (triple string int int)))
            (name ^ ": certificate spans")
            (List.filter (fun (kind, p, _) -> kind <> "schema" || p >= kill) base_records)
            resumed_records))
    kills

let bv_u = lazy (Holistic.Universe.build Models.Bv_ta.automaton)
let naive_u = lazy (Holistic.Universe.build Models.Naive_ta.automaton)
let simplified_u = lazy (Holistic.Universe.build Models.Simplified_ta.automaton)

let broken_u =
  lazy (Holistic.Universe.build Models.Simplified_ta.automaton_broken_resilience)

(* The bv-broadcast properties that static discharge refutes. *)
let bv_statically_refuted = [ "BV-Just0"; "BV-Just1" ]

(* A static-off test's premise: the default run of [spec] does discharge
   statically, so switching it off changes the transcript. *)
let check_static_fires name u spec =
  let r = Ck.verify_with_universe ~limits:Ck.default_limits u spec in
  Alcotest.(check bool) (name ^ ": static discharge fires") true (r.Ck.stats.static_prunes > 0)

(* bv-broadcast: every property, sequential and pooled (the runs are
   cheap enough for the full matrix), and the statically refuted ones
   again with static discharge off. *)
let bv_matrix_tests =
  List.concat_map
    (fun (spec : S.t) ->
      let static_off =
        if List.mem spec.name bv_statically_refuted then nostatic_engines else []
      in
      List.map
        (fun (engine, (limits : Ck.limits)) ->
          Alcotest.test_case
            (Printf.sprintf "bv %s / %s" spec.name engine)
            `Quick
            (fun () ->
              let name = Printf.sprintf "bv %s %s" spec.name engine in
              if not limits.static then check_static_fires name (Lazy.force bv_u) spec;
              kill_resume_equiv name ~limits (Lazy.force bv_u) spec))
        (engines @ static_off))
    Models.Bv_ta.all_specs

(* The abort path must also resume exactly: a naive-consensus row killed
   mid-flight and resumed must abort at the same position with the same
   reason as the uninterrupted budgeted run. *)
let naive_abort_tests =
  List.map
    (fun (engine, limits) ->
      let limits = { limits with Ck.max_schemas = 150 } in
      Alcotest.test_case (Printf.sprintf "naive abort / %s" engine) `Quick (fun () ->
          kill_resume_equiv
            (Printf.sprintf "naive abort %s" engine)
            ~limits ~kills:[ 40; 149 ] (Lazy.force naive_u)
            (List.hd Models.Naive_ta.table2_specs)))
    engines

(* A witness run: the broken-resilience counterexample must come out of
   the resumed slice with the identical witness trace. *)
let broken_witness_tests =
  List.map
    (fun (engine, limits) ->
      Alcotest.test_case (Printf.sprintf "broken witness / %s" engine) `Quick (fun () ->
          kill_resume_equiv
            (Printf.sprintf "broken witness %s" engine)
            ~limits ~kills:[ 1; 5 ] (Lazy.force broken_u) Models.Simplified_ta.inv1_0))
    engines

(* One simplified row, budgeted, pooled (the engine with the most
   resumption machinery: subtree jobs straddling the frontier). *)
let test_simplified_budgeted () =
  let limits = { Ck.default_limits with jobs = 3; max_schemas = 150 } in
  kill_resume_equiv "simplified inv2_0 par" ~limits ~kills:[ 10; 77 ]
    (Lazy.force simplified_u) Models.Simplified_ta.inv2_0

(* Seeded property: a uniformly random kill position anywhere in the
   run must be transparent, for every engine, with static discharge on
   and off (the property is statically refuted). *)
let qcheck_kill_anywhere =
  let spec = List.hd Models.Bv_ta.table2_specs in
  assert (List.mem spec.S.name bv_statically_refuted);
  List.map
    (fun (engine, limits) ->
      QCheck_alcotest.to_alcotest
        (QCheck.Test.make
           ~name:(Printf.sprintf "random kill position is transparent (%s)" engine)
           ~count:12
           QCheck.(int_range 1 60)
           (fun kill ->
             kill_resume_equiv
               (Printf.sprintf "bv qcheck %s" engine)
               ~limits ~kills:[ kill ] (Lazy.force bv_u) spec;
             true)))
    (engines @ nostatic_engines)

(* Two kills before the final resume: the journal must accumulate
   across slices (stats cover [0, frontier) whatever the slice count). *)
let test_multi_slice_resume () =
  List.iter
    (fun (engine, limits) ->
      let spec = List.nth Models.Bv_ta.table2_specs 1 in
      let base = Ck.verify_with_universe ~limits (Lazy.force bv_u) spec in
      with_path (fun path ->
          List.iter
            (fun cut ->
              ignore
                (Ck.verify_with_universe
                   ~limits:{ limits with Ck.max_schemas = cut }
                   ~checkpoint:path ~checkpoint_every:1 ~resume:true (Lazy.force bv_u)
                   spec))
            [ 4; 17 ];
          let resumed =
            Ck.verify_with_universe ~limits ~checkpoint:path ~resume:true
              (Lazy.force bv_u) spec
          in
          check_equiv ("multi-slice " ^ engine) base resumed))
    engines

(* ------------------------------------------------------------------ *)
(* Resume frontiers inside pruned subtrees.  The checker accounts a
   pruned subtree wholly below the frontier by its closed-form size and
   descends only into a subtree the frontier splits: kills at the edges
   of, and strictly inside, pruned subtrees, through the kill-and-resume
   battery. *)

(* Kill positions at the edges of, and strictly inside, the two largest
   pruned subtrees of the sequential transcript. *)
let kills_in_pruned records =
  let pruned = List.filter (fun (kind, _, span) -> kind <> "schema" && span >= 3) records in
  let largest =
    List.filteri (fun i _ -> i < 2)
      (List.sort (fun (_, _, a) (_, _, b) -> compare b a) pruned)
  in
  if largest = [] then Alcotest.fail "no pruned subtree to place a kill in";
  List.filter (fun k -> k > 0)
    (List.sort_uniq compare
       (List.concat_map
          (fun (_, p0, n) -> [ p0; p0 + 1; p0 + (n / 2); p0 + n - 1; p0 + n ])
          largest))

let test_resume_in_pruned () =
  List.iter
    (fun (name, static, u, spec) ->
      let records =
        with_path (fun path ->
            snd (run_with_certs ~limits:{ Ck.default_limits with static } ~path u spec))
      in
      List.iter
        (fun (engine, limits) ->
          kill_resume_equiv
            (Printf.sprintf "%s / %s" name engine)
            ~limits:{ limits with Ck.static } ~kills:(kills_in_pruned records) u spec)
        engines)
    [
      ("simplified Inv2_0 static", true, Lazy.force simplified_u, Models.Simplified_ta.inv2_0);
      ("simplified Inv2_0 prefix", false, Lazy.force simplified_u, Models.Simplified_ta.inv2_0);
      ("naive Inv2_0 static", true, Lazy.force naive_u, Models.Naive_ta.inv2_0);
    ]

(* ------------------------------------------------------------------ *)
(* Fail-soft: injected discharge crashes quarantine instead of killing
   the run.                                                             *)

(* A crash at every attempt of one position: the run must complete with
   a Partial verdict quarantining exactly that position.  Static
   discharge is off: it refutes this property whole, so position 3
   would be pruned before the failpoint could fire. *)
let test_failpoint_quarantines () =
  let spec = List.hd Models.Bv_ta.table2_specs in
  List.iter
    (fun (engine, limits) ->
      let limits = { limits with Ck.static = false } in
      let r =
        Ck.verify_with_universe ~limits
          ~failpoint:(fun pos -> if pos = 3 then failwith "injected crash")
          (Lazy.force bv_u) spec
      in
      match r.Ck.outcome with
      | Ck.Partial { quarantined = [ (3, msg) ]; reason } ->
        Alcotest.(check bool)
          (engine ^ ": quarantine message carries the exception")
          true
          (contains ~sub:"injected crash" msg);
        Alcotest.(check bool)
          (engine ^ ": reason names the quarantine")
          true
          (contains ~sub:"quarantin" reason)
      | o -> Alcotest.failf "%s: expected Partial with position 3, got %s" engine (outcome_repr o))
    engines

(* A failpoint past the deciding schema never fires: the verdict is the
   plain witness, bit-identical to the clean run. *)
let test_failpoint_after_decision_harmless () =
  let spec = Models.Simplified_ta.inv1_0 in
  let limits = { Ck.default_limits with jobs = 1 } in
  let base = Ck.verify_with_universe ~limits (Lazy.force broken_u) spec in
  let decided =
    match base.Ck.outcome with
    | Ck.Violated _ -> base.Ck.stats.schemas_checked
    | o -> Alcotest.failf "expected the counterexample, got %s" (outcome_repr o)
  in
  let r =
    Ck.verify_with_universe ~limits
      ~failpoint:(fun pos -> if pos >= decided + 5 then failwith "never reached")
      (Lazy.force broken_u) spec
  in
  check_equiv "failpoint past decision" base r

(* A quarantined checkpoint re-attempts the hole on resume: with the
   crash gone, the resumed run is clean and Holds. *)
let test_quarantine_then_clean_resume () =
  let spec = List.hd Models.Bv_ta.table2_specs in
  (* Static off for the same reason as test_failpoint_quarantines. *)
  let limits = { Ck.default_limits with jobs = 1; static = false } in
  let base = Ck.verify_with_universe ~limits (Lazy.force bv_u) spec in
  with_path (fun path ->
      let crashed =
        Ck.verify_with_universe ~limits ~checkpoint:path ~checkpoint_every:1
          ~failpoint:(fun pos -> if pos = 3 then failwith "transient")
          (Lazy.force bv_u) spec
      in
      (match crashed.Ck.outcome with
       | Ck.Partial _ -> ()
       | o -> Alcotest.failf "expected Partial, got %s" (outcome_repr o));
      let resumed =
        Ck.verify_with_universe ~limits ~checkpoint:path ~resume:true (Lazy.force bv_u)
          spec
      in
      check_equiv "clean resume after quarantine" base resumed)

(* ------------------------------------------------------------------ *)
(* Deadlines and interrupts.                                            *)

(* A fake budget clock that jumps past the deadline after a few reads:
   the abort is deterministic, typed as a time-budget abort, and not
   conflated with the solver's Unknown. *)
let test_deadline_abort_deterministic () =
  let run () =
    let calls = ref 0 in
    let now () =
      incr calls;
      if !calls > 8 then 1.0e6 else 0.0
    in
    let limits = { Ck.default_limits with time_budget = Some 5.0; jobs = 1 } in
    Ck.verify_with_universe ~limits ~now (Lazy.force naive_u)
      (List.hd Models.Naive_ta.table2_specs)
  in
  let a = run () and b = run () in
  (match a.Ck.outcome with
   | Ck.Aborted reason ->
     Alcotest.(check bool) "reason names the time budget" true
       (contains ~sub:"time budget" reason);
     Alcotest.(check bool) "not the solver-unknown message" false
       (contains ~sub:"unknown" reason)
   | o -> Alcotest.failf "expected a time-budget abort, got %s" (outcome_repr o));
  check_equiv "deadline abort is deterministic" a b

(* The solver-level stop: a pathological branch-and-bound query under an
   already-expired deadline must answer Timeout, not Unknown and not an
   exception. *)
let test_lia_timeout_typed () =
  let open Smt in
  let v = Linexpr.var
  and c n = Linexpr.const (Numbers.Rational.of_int n) in
  (* 3x + 3y = 2: integer-infeasible, needs branching to refute. *)
  let atoms =
    [
      Atom.eq
        (Linexpr.add
           (Linexpr.scale (Numbers.Rational.of_int 3) (v 0))
           (Linexpr.scale (Numbers.Rational.of_int 3) (v 1)))
        (c 2);
      Atom.ge (v 0) (c 0); Atom.le (v 0) (c 1000); Atom.ge (v 1) (c (-1000));
    ]
  in
  match Lia.solve ~stop:(fun () -> true) atoms with
  | Lia.Timeout -> ()
  | Lia.Unknown -> Alcotest.fail "expired deadline reported as Unknown, not Timeout"
  | Lia.Sat _ | Lia.Unsat ->
    (* The solver may still answer instantly for a query this small —
       that is allowed (the stop is only polled between pivots), but
       only with a correct verdict. *)
    Alcotest.(check bool) "verdict correct despite stop" true
      (Lia.solve atoms = Lia.Unsat)

(* Cooperative interrupt: the run winds down as a resumable abort, the
   checkpoint is flushed, and a resume completes with totals identical
   to an uninterrupted run. *)
let test_interrupt_flush_and_resume () =
  let spec = List.hd Models.Bv_ta.table2_specs in
  let limits = { Ck.default_limits with jobs = 1 } in
  let base = Ck.verify_with_universe ~limits (Lazy.force bv_u) spec in
  with_path (fun path ->
      Ck.request_interrupt ();
      Alcotest.(check bool) "flag readable" true (Ck.interrupt_requested ());
      let killed =
        Fun.protect ~finally:Ck.clear_interrupt (fun () ->
            Ck.verify_with_universe ~limits ~checkpoint:path ~checkpoint_every:1
              (Lazy.force bv_u) spec)
      in
      (match killed.Ck.outcome with
       | Ck.Aborted reason ->
         Alcotest.(check bool) "abort names the interrupt" true
           (contains ~sub:"interrupted" reason)
       | o -> Alcotest.failf "expected an interrupt abort, got %s" (outcome_repr o));
      Alcotest.(check bool) "checkpoint flushed" true (Sys.file_exists path);
      Alcotest.(check bool) "flag cleared" false (Ck.interrupt_requested ());
      let resumed =
        Ck.verify_with_universe ~limits ~checkpoint:path ~resume:true (Lazy.force bv_u)
          spec
      in
      check_equiv "interrupt then resume" base resumed)

(* ------------------------------------------------------------------ *)
(* The journal itself.                                                  *)

let sample_journal () =
  let j = J.fresh ~fingerprint:"f1" in
  let j =
    J.apply j ~span:3
      {
        J.zero_delta with
        J.d_checked = 2; d_skipped = 1; d_pruned = 1;
        d_hits = 4; d_slots = 9; d_steps = 31; d_encode_us = 1500;
        d_solve_us = 2500; d_cache_hits = 5; d_cache_misses = 6; d_cache_cross = 2;
        d_wins_interval = 3; d_wins_cooper = 1; d_wins_simplex = 2;
      }
  in
  { j with J.elapsed_us = 4321; quarantined = [ (7, "boom") ] }

let test_journal_roundtrip () =
  let j = sample_journal () in
  Alcotest.(check int) "frontier advanced" 3 j.J.frontier;
  let json = J.to_json j in
  Alcotest.(check bool) "of_json . to_json = id" true (J.of_json json = j);
  (* Canonical bytes: re-serializing the parsed document is a no-op. *)
  let bytes = Jsonc.to_string json in
  Alcotest.(check string) "canonical serialization" bytes
    (Jsonc.to_string (J.to_json (J.of_json (Jsonc.of_string bytes))))

let test_journal_save_load_atomic () =
  let j = sample_journal () in
  with_path (fun path ->
      J.save ~path j;
      (* The file is exactly the canonical document plus one newline —
         what CI's `cmp <(jq -c . f) f`-style canonicality gate assumes. *)
      let contents =
        let ic = open_in_bin path in
        Fun.protect
          ~finally:(fun () -> close_in_noerr ic)
          (fun () -> really_input_string ic (in_channel_length ic))
      in
      Alcotest.(check string) "file bytes" (Jsonc.to_string (J.to_json j) ^ "\n") contents;
      Alcotest.(check bool) "no stray temp file" false (Sys.file_exists (path ^ ".tmp"));
      (match J.load ~path with
       | Ok j' -> Alcotest.(check bool) "load restores the journal" true (j' = j)
       | Error e -> Alcotest.fail e);
      (* Overwriting is atomic from the reader's point of view: after a
         second save the file parses and carries the new frontier. *)
      let j2 = J.apply j ~span:2 { J.zero_delta with d_checked = 2 } in
      J.save ~path j2;
      match J.load ~path with
      | Ok j' -> Alcotest.(check int) "second save read back" 5 j'.J.frontier
      | Error e -> Alcotest.fail e)

(* Durability failpoints: a crash between writing the temp file and the
   rename must leave the previous checkpoint intact, and a crash after
   the rename must leave the new one — never a torn or missing file.
   The hook fires at each stage of [atomic_write]; raising there models
   the process dying at exactly that point. *)
let test_atomic_write_crash_failpoints () =
  let exception Killed in
  let read path =
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  in
  with_path (fun path ->
      J.atomic_write ~path "old contents\n";
      let crash_at stage =
        J.atomic_write_failpoint :=
          Some (fun s -> if s = stage then raise Killed);
        let crashed =
          match J.atomic_write ~path "new contents\n" with
          | () -> false
          | exception Killed -> true
        in
        J.atomic_write_failpoint := None;
        Alcotest.(check bool) (stage ^ ": failpoint fired") true crashed;
        read path
      in
      (* Killed after the data is written but before fsync/rename: the
         reader still sees the old checkpoint, not a torn file. *)
      Alcotest.(check string) "crash before sync keeps old" "old contents\n"
        (crash_at "written");
      Alcotest.(check string) "crash before rename keeps old" "old contents\n"
        (crash_at "synced");
      (* Killed after the rename but before the directory sync: the new
         contents are what a reader sees. *)
      Alcotest.(check string) "crash after rename has new" "new contents\n"
        (crash_at "renamed");
      if Sys.file_exists (path ^ ".tmp") then Sys.remove (path ^ ".tmp"))

let test_journal_fingerprint_validation () =
  let j = sample_journal () in
  (match J.validate ~fingerprint:"f1" j with
   | Ok j' -> Alcotest.(check bool) "matching fingerprint accepted" true (j' = j)
   | Error e -> Alcotest.fail e);
  (match J.validate ~fingerprint:"f2" j with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "mismatched fingerprint accepted");
  (* Distinct properties give distinct fingerprints; same pair, same. *)
  let ta = Models.Bv_ta.automaton in
  let s1 = List.nth Models.Bv_ta.table2_specs 0
  and s2 = List.nth Models.Bv_ta.table2_specs 1 in
  Alcotest.(check bool) "fingerprint is stable" true
    (J.fingerprint ta s1 = J.fingerprint ta s1);
  Alcotest.(check bool) "fingerprint separates properties" false
    (J.fingerprint ta s1 = J.fingerprint ta s2)

(* End to end: resuming a checkpoint recorded for another property must
   be refused loudly, not silently fast-forwarded. *)
let test_resume_rejects_foreign_checkpoint () =
  let s1 = List.nth Models.Bv_ta.table2_specs 0
  and s2 = List.nth Models.Bv_ta.table2_specs 1 in
  let limits = { Ck.default_limits with max_schemas = 5 } in
  with_path (fun path ->
      ignore
        (Ck.verify_with_universe ~limits ~checkpoint:path ~checkpoint_every:1
           (Lazy.force bv_u) s1);
      match
        Ck.verify_with_universe ~limits ~checkpoint:path ~resume:true (Lazy.force bv_u)
          s2
      with
      | exception Invalid_argument msg ->
        Alcotest.(check bool) "error names the fingerprint" true
          (contains ~sub:"fingerprint" msg)
      | _ -> Alcotest.fail "foreign checkpoint accepted")

(* A missing checkpoint with --resume is a cold start, not an error. *)
let test_resume_missing_is_cold_start () =
  let spec = List.hd Models.Bv_ta.table2_specs in
  let limits = Ck.default_limits in
  let base = Ck.verify_with_universe ~limits (Lazy.force bv_u) spec in
  with_path (fun path ->
      let r =
        Ck.verify_with_universe ~limits ~checkpoint:path ~resume:true (Lazy.force bv_u)
          spec
      in
      check_equiv "cold start" base r;
      Alcotest.(check bool) "checkpoint written" true (Sys.file_exists path))

let () =
  Alcotest.run "resume"
    [
      ("bv kill-and-resume matrix", bv_matrix_tests);
      ( "abort, witness and multi-slice",
        [
          Alcotest.test_case "simplified budgeted par" `Slow test_simplified_budgeted;
          Alcotest.test_case "multi-slice resume" `Quick test_multi_slice_resume;
          Alcotest.test_case "resume frontier inside pruned subtrees" `Quick
            test_resume_in_pruned;
        ]
        @ naive_abort_tests @ broken_witness_tests );
      ("random kill positions", qcheck_kill_anywhere);
      ( "fail-soft quarantine",
        [
          Alcotest.test_case "failpoint quarantines (all engines)" `Quick
            test_failpoint_quarantines;
          Alcotest.test_case "failpoint past decision is harmless" `Quick
            test_failpoint_after_decision_harmless;
          Alcotest.test_case "quarantine then clean resume" `Quick
            test_quarantine_then_clean_resume;
        ] );
      ( "deadlines and interrupts",
        [
          Alcotest.test_case "deadline abort is typed and deterministic" `Quick
            test_deadline_abort_deterministic;
          Alcotest.test_case "lia timeout is typed" `Quick test_lia_timeout_typed;
          Alcotest.test_case "interrupt flushes and resumes" `Quick
            test_interrupt_flush_and_resume;
        ] );
      ( "journal",
        [
          Alcotest.test_case "canonical roundtrip" `Quick test_journal_roundtrip;
          Alcotest.test_case "atomic save/load" `Quick test_journal_save_load_atomic;
          Alcotest.test_case "atomic_write crash failpoints" `Quick
            test_atomic_write_crash_failpoints;
          Alcotest.test_case "fingerprint validation" `Quick
            test_journal_fingerprint_validation;
          Alcotest.test_case "foreign checkpoint refused" `Quick
            test_resume_rejects_foreign_checkpoint;
          Alcotest.test_case "missing checkpoint is a cold start" `Quick
            test_resume_missing_is_cold_start;
        ] );
    ]
