(* Robustness battery for the verification daemon (lib/service).

   Soundness contract under test: whatever the daemon suffers — worker
   crashes at deterministic or random positions, SIGKILL from outside,
   hung discharges, a SIGTERM of the daemon itself followed by a
   restart — every job's verdict, witness and schema count must be
   byte-identical to the sequential in-process checker, and a job may
   degrade to the fail-soft [Partial] verdict only when a slice's retry
   budget is truly exhausted (a deterministic poison pill), never under
   mere crash churn. *)

module J = Jsonc
module Ck = Holistic.Checker

(* cwd is _build/default/test under `dune runtest`, the project root
   under `dune exec test/test_service.exe`. *)
let bin =
  let candidates =
    [
      "../bin/holistic_cli.exe";
      "_build/default/bin/holistic_cli.exe";
      "bin/holistic_cli.exe";
    ]
  in
  match List.find_opt Sys.file_exists candidates with
  | Some p -> p
  | None -> "../bin/holistic_cli.exe"

let next_dir = ref 0

let fresh_state_dir () =
  incr next_dir;
  let d =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "holistic-svc-%d-%d" (Unix.getpid ()) !next_dir)
  in
  let rec rm p =
    if Sys.file_exists p then
      if Sys.is_directory p then begin
        Array.iter (fun f -> rm (Filename.concat p f)) (Sys.readdir p);
        Unix.rmdir p
      end
      else Sys.remove p
  in
  rm d;
  d

(* ------------------------------------------------------------------- *)
(* Daemon harness. *)

type daemon = { pid : int; state_dir : string }

let start_daemon ?(workers = 2) ?(slice_size = 8) ?(ckpt_every = 1)
    ?(retry_budget = 5) ?(hb_timeout = 30.0) ?(failpoints = []) () =
  let state_dir = fresh_state_dir () in
  let args =
    [
      bin; "serve"; "--state"; state_dir;
      "--workers"; string_of_int workers;
      "--slice-size"; string_of_int slice_size;
      "--worker-ckpt-every"; string_of_int ckpt_every;
      "--retry-budget"; string_of_int retry_budget;
      "--heartbeat-timeout"; Printf.sprintf "%g" hb_timeout;
      "--hb-interval"; "0.2";
    ]
    @ List.concat_map (fun f -> [ "--failpoint"; f ]) failpoints
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Unix.create_process bin (Array.of_list args) devnull devnull devnull
  in
  Unix.close devnull;
  { pid; state_dir }

(* Relaunch on the same state directory: the restarted daemon must pick
   the drained jobs back up from their journal frontiers. *)
let restart_daemon d =
  let args =
    [ bin; "serve"; "--state"; d.state_dir; "--workers"; "2"; "--slice-size"; "8";
      "--worker-ckpt-every"; "1"; "--retry-budget"; "5"; "--hb-interval"; "0.2" ]
  in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid = Unix.create_process bin (Array.of_list args) devnull devnull devnull in
  Unix.close devnull;
  { pid; state_dir = d.state_dir }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 10.0 in
  let rec reap () =
    match Unix.waitpid [ Unix.WNOHANG ] d.pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill d.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] d.pid)
      end
      else begin
        Unix.sleepf 0.05;
        reap ()
      end
    | _ -> ()
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
  in
  reap ()

let with_daemon ?workers ?slice_size ?ckpt_every ?retry_budget ?hb_timeout
    ?failpoints f =
  let d =
    start_daemon ?workers ?slice_size ?ckpt_every ?retry_budget ?hb_timeout
      ?failpoints ()
  in
  Fun.protect ~finally:(fun () -> stop_daemon d) (fun () -> f d)

let connect d =
  match Service.Client.connect ~retries:100 ~state_dir:d.state_dir () with
  | Ok c -> c
  | Error e -> Alcotest.fail ("connect: " ^ e)

let submit_wait d ~model ?spec ?max_schemas () =
  let c = connect d in
  Fun.protect
    ~finally:(fun () -> Service.Client.close c)
    (fun () ->
      match Service.Client.submit c ~model ?spec ?max_schemas () with
      | Error e -> Alcotest.fail ("submit: " ^ e)
      | Ok ids -> (
        match Service.Client.wait_jobs c ids with
        | Error e -> Alcotest.fail ("wait: " ^ e)
        | Ok rows -> List.map snd rows))

(* Sequential in-process reference: the row the daemon must reproduce
   byte-for-byte. *)
let local_rows ~model ?spec ?(max_schemas = 100_000) () =
  match Service.Registry.find_specs model spec with
  | Error e -> Alcotest.fail e
  | Ok (ta, specs) ->
    let u = Holistic.Universe.build ta in
    let limits = { Ck.default_limits with max_schemas } in
    List.map
      (fun s ->
        Service.Protocol.row_of_result ~model (Ck.verify_with_universe ~limits u s))
      specs

let sorted_strings rows = List.sort compare (List.map J.to_string rows)

let contains_substring haystack needle =
  let n = String.length needle and l = String.length haystack in
  let rec go i = i + n <= l && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let check_rows_match what daemon_rows reference_rows =
  Alcotest.(check (list string))
    what
    (sorted_strings reference_rows)
    (sorted_strings daemon_rows)

(* ------------------------------------------------------------------- *)
(* Tests. *)

(* Sharding must not change a row at any worker count. *)
let test_faultless_end_to_end workers () =
  with_daemon ~workers ~ckpt_every:16 (fun d ->
      check_rows_match "bv rows"
        (submit_wait d ~model:"bv" ())
        (local_rows ~model:"bv" ());
      (* strb has a violated property: the witness must match too. *)
      check_rows_match "strb rows"
        (submit_wait d ~model:"strb" ())
        (local_rows ~model:"strb" ()))

let test_budget_abort_matches () =
  with_daemon (fun d ->
      check_rows_match "capped simplified row"
        (submit_wait d ~model:"simplified" ~spec:"Inv1_0" ~max_schemas:120 ())
        (local_rows ~model:"simplified" ~spec:"Inv1_0" ~max_schemas:120 ()))

(* Crash churn: every worker SIGKILLs itself before every Nth
   discharge, forever (respawned workers crash again).  With a slice
   checkpoint cadence of 1, every attempt makes durable progress, so
   the retry counter keeps resetting and the job must converge to the
   exact sequential verdict — quarantine under churn would be a bug. *)
let qcheck_kill_anywhere =
  QCheck.Test.make ~count:4 ~name:"worker-crash:N churn is bit-identical"
    (QCheck.int_range 2 12)
    (fun n ->
      with_daemon
        ~failpoints:[ Printf.sprintf "worker-crash:%d" n ]
        (fun d ->
          let rows = submit_wait d ~model:"bv" ~spec:"BV-Term" () in
          let reference = local_rows ~model:"bv" ~spec:"BV-Term" () in
          sorted_strings rows = sorted_strings reference))

let test_external_sigkill_mid_slice () =
  with_daemon ~slice_size:8 (fun d ->
      let c = connect d in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          let ids =
            match
              Service.Client.submit c ~model:"simplified" ~spec:"Inv1_0"
                ~max_schemas:200 ()
            with
            | Ok ids -> ids
            | Error e -> Alcotest.fail e
          in
          (* While the job runs, SIGKILL whichever worker is busy —
             twice, with a breather, to hit different slices. *)
          let kill_busy () =
            match Service.Client.request c (J.Obj [ ("t", J.Str "status") ]) with
            | Error _ -> ()
            | Ok st ->
              List.iter
                (fun w ->
                  match J.member "task" w with
                  | J.Null -> ()
                  | _ -> (
                    try Unix.kill (J.to_int (J.member "pid" w)) Sys.sigkill
                    with Unix.Unix_error _ -> ()))
                (J.to_list (J.member "workers" st))
          in
          Unix.sleepf 0.3;
          kill_busy ();
          Unix.sleepf 0.4;
          kill_busy ();
          match Service.Client.wait_jobs c ids with
          | Error e -> Alcotest.fail e
          | Ok rows ->
            check_rows_match "rows after external SIGKILL"
              (List.map snd rows)
              (local_rows ~model:"simplified" ~spec:"Inv1_0" ~max_schemas:200 ())))

(* Poison pill: the worker dies at the same absolute position every
   attempt, so no retry makes progress past it; the budget exhausts and
   exactly that position is quarantined — and only then. *)
let test_poison_pill_quarantines () =
  with_daemon ~retry_budget:2 ~failpoints:[ "worker-crash-at:10" ] (fun d ->
      match submit_wait d ~model:"bv" ~spec:"BV-Term" () with
      | [ row ] ->
        Alcotest.(check string)
          "outcome" "partial"
          (J.to_str (J.member "outcome" row));
        (match J.to_list (J.member "quarantined" row) with
        | [ entry ] -> (
          match J.to_list entry with
          | [ pos; msg ] ->
            Alcotest.(check int) "hole at the poison position" 10 (J.to_int pos);
            Alcotest.(check bool)
              "reason records the exhausted budget" true
              (contains_substring (J.to_str msg) "retry budget")
          | _ -> Alcotest.fail "malformed quarantine entry")
        | q -> Alcotest.failf "expected one hole, got %d" (List.length q))
      | rows -> Alcotest.failf "expected one row, got %d" (List.length rows))

(* A raising discharge is the checker's own in-process fail-soft path:
   the position is quarantined inside the worker (after the checker's
   own retry), and the daemon adopts the hole verbatim. *)
let test_raise_at_propagates_checker_quarantine () =
  with_daemon ~failpoints:[ "worker-raise-at:10" ] (fun d ->
      match submit_wait d ~model:"bv" ~spec:"BV-Term" () with
      | [ row ] ->
        Alcotest.(check string)
          "outcome" "partial"
          (J.to_str (J.member "outcome" row));
        (match J.to_list (J.member "quarantined" row) with
        | [ entry ] -> (
          match J.to_list entry with
          | pos :: _ ->
            Alcotest.(check int) "checker quarantined exactly 10" 10 (J.to_int pos)
          | [] -> Alcotest.fail "empty quarantine entry")
        | q -> Alcotest.failf "expected one hole, got %d" (List.length q))
      | rows -> Alcotest.failf "expected one row, got %d" (List.length rows))

(* A hung discharge does not hang the job: the worker's heartbeat
   reports a stalled position, the coordinator SIGKILLs it past the
   deadline, and — since the hang recurs at the same position every
   attempt — the retry budget eventually quarantines exactly that
   position. *)
let test_hang_heartbeat_kill () =
  with_daemon ~retry_budget:1 ~hb_timeout:1.5
    ~failpoints:[ "worker-hang-at:10" ] (fun d ->
      match submit_wait d ~model:"bv" ~spec:"BV-Term" () with
      | [ row ] ->
        Alcotest.(check string)
          "outcome" "partial"
          (J.to_str (J.member "outcome" row));
        (match J.to_list (J.member "quarantined" row) with
        | [ entry ] -> (
          match J.to_list entry with
          | pos :: _ ->
            Alcotest.(check int) "hole at the hang position" 10 (J.to_int pos)
          | [] -> Alcotest.fail "empty quarantine entry")
        | q -> Alcotest.failf "expected one hole, got %d" (List.length q))
      | rows -> Alcotest.failf "expected one row, got %d" (List.length rows))

(* SIGTERM mid-flight flushes every journal; a restarted daemon on the
   same state directory resumes the job from its frontier and lands on
   the bit-identical verdict. *)
let test_sigterm_drain_and_restart_resumes () =
  let d = start_daemon ~slice_size:8 () in
  let ids =
    let c = connect d in
    Fun.protect
      ~finally:(fun () -> Service.Client.close c)
      (fun () ->
        match
          Service.Client.submit c ~model:"simplified" ~spec:"Inv1_0"
            ~max_schemas:250 ()
        with
        | Ok ids -> ids
        | Error e -> Alcotest.fail e)
  in
  Unix.sleepf 0.6;
  stop_daemon d;
  (* The drained state must already hold a manifest and a job journal. *)
  Alcotest.(check bool)
    "manifest flushed" true
    (Sys.file_exists (Filename.concat d.state_dir "jobs.json"));
  let d2 = restart_daemon d in
  Fun.protect
    ~finally:(fun () -> stop_daemon d2)
    (fun () ->
      let c = connect d2 in
      Fun.protect
        ~finally:(fun () -> Service.Client.close c)
        (fun () ->
          match Service.Client.wait_jobs c ids with
          | Error e -> Alcotest.fail e
          | Ok rows ->
            check_rows_match "resumed verdict"
              (List.map snd rows)
              (local_rows ~model:"simplified" ~spec:"Inv1_0" ~max_schemas:250 ())))

(* Slices of a statically refuted job are accounted in closed form: a
   slice fast-forwards past the frontier by subtree sizes instead of
   re-counting the preorder from the root, so a job's slices cost no
   more than linear in their number.  Naive Inv2_0 (41,183 schemas, one
   root static refutation) at the serve default of 64 positions per
   slice is 644 slices; re-counting each from the root took minutes on
   a 2-vCPU container, closed-form accounting takes seconds.  The bound
   leaves an order of magnitude of slack over the linear cost. *)
let test_many_slices_linear () =
  with_daemon ~slice_size:64 ~ckpt_every:16 (fun d ->
      let t0 = Unix.gettimeofday () in
      let rows = submit_wait d ~model:"naive" ~spec:"Inv2_0" () in
      let elapsed = Unix.gettimeofday () -. t0 in
      check_rows_match "naive Inv2_0 row" rows
        (local_rows ~model:"naive" ~spec:"Inv2_0" ());
      if elapsed > 60.0 then
        Alcotest.failf
          "644 slices took %.1f s (bound 60 s): per-slice cost grows with the slice's \
           position"
          elapsed)

let () =
  Alcotest.run "service"
    [
      ( "daemon",
        [
          Alcotest.test_case "faultless end-to-end rows match" `Quick
            (test_faultless_end_to_end 2);
          Alcotest.test_case "faultless end-to-end rows match, 1 worker" `Quick
            (test_faultless_end_to_end 1);
          Alcotest.test_case "faultless end-to-end rows match, 4 workers" `Quick
            (test_faultless_end_to_end 4);
          Alcotest.test_case "budget abort matches" `Quick test_budget_abort_matches;
          Alcotest.test_case "external SIGKILL mid-slice" `Quick
            test_external_sigkill_mid_slice;
          Alcotest.test_case "poison pill quarantines (budget exhausted)" `Quick
            test_poison_pill_quarantines;
          Alcotest.test_case "raise-at propagates checker quarantine" `Quick
            test_raise_at_propagates_checker_quarantine;
          Alcotest.test_case "hung discharge killed via heartbeat" `Quick
            test_hang_heartbeat_kill;
          Alcotest.test_case "SIGTERM drain + restart resumes" `Quick
            test_sigterm_drain_and_restart_resumes;
          Alcotest.test_case "644 slices of one pruned job finish in linear time" `Quick
            test_many_slices_linear;
        ] );
      ( "kill anywhere",
        [ QCheck_alcotest.to_alcotest qcheck_kill_anywhere ] );
    ]
