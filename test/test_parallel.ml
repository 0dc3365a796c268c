(* Cross-validation of the multicore schema-verification engine against
   the sequential reference engine.

   The parallel checker (Checker with limits.jobs > 1, built on
   lib/core/pool.ml) promises bit-identical outcomes, witness traces,
   schema counts, slot totals and solver-step totals for any number of
   worker domains.  This suite pins that contract on:

   - the Pool primitive itself, with synthetic job streams;
   - every bv-broadcast spec and every simplified-consensus spec of the
     paper (the Table 2 properties run to completion; the remaining
     symmetric variants run under a schema budget to also pin the
     deterministic abort path);
   - the naive-consensus abort rows and the broken-resilience
     counterexample (witness equality included);
   - a qcheck property over randomly generated small DAG automata. *)

module A = Ta.Automaton
module G = Ta.Guard
module P = Ta.Pexpr
module C = Ta.Cond
module S = Ta.Spec
module Ck = Holistic.Checker

(* ------------------------------------------------------------------ *)
(* The Pool primitive.                                                  *)

let int_stream n ~push =
  let rec go i = if i >= n then true else if push i then go (i + 1) else false in
  go 0

let test_pool_all_pass () =
  let c =
    Holistic.Pool.run ~jobs:4 ~produce:(int_stream 100)
      ~work:(fun ~worker:_ _i item -> item * 2)
      ~is_stop:(fun _ -> false)
      ()
  in
  Alcotest.(check bool) "completed" true c.Holistic.Pool.completed;
  Alcotest.(check (option int)) "no stop" None c.Holistic.Pool.first_stop;
  let indices = List.map (fun (i, _, _) -> i) c.Holistic.Pool.results in
  Alcotest.(check (list int)) "every job ran once" (List.init 100 Fun.id)
    (List.sort compare indices);
  List.iter
    (fun (i, _, r) -> Alcotest.(check int) "result" (2 * i) r)
    c.Holistic.Pool.results

let test_pool_first_stop_deterministic () =
  (* Items 37, 11 mod 50... every item >= 37 stops; the pool must report
     37 — the sequential stop — no matter how workers interleave. *)
  List.iter
    (fun jobs ->
      let c =
        Holistic.Pool.run ~jobs ~capacity:4 ~produce:(int_stream 500)
          ~work:(fun ~worker:_ _i item -> item)
          ~is_stop:(fun r -> r >= 37)
          ()
      in
      Alcotest.(check (option int))
        (Printf.sprintf "first stop at jobs=%d" jobs)
        (Some 37) c.Holistic.Pool.first_stop;
      Alcotest.(check bool) "producer cut off" false c.Holistic.Pool.completed;
      (* Everything before the stop must have run. *)
      let ran = List.map (fun (i, _, _) -> i) c.Holistic.Pool.results in
      List.iter
        (fun i -> Alcotest.(check bool) (Printf.sprintf "job %d ran" i) true (List.mem i ran))
        (List.init 38 Fun.id))
    [ 1; 2; 4; 8 ]

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

(* Fail-soft: a job that crashes on both attempts is quarantined — the
   run completes and every other job's result is present. *)
let test_pool_worker_exception () =
  let c =
    Holistic.Pool.run ~jobs:3 ~produce:(int_stream 50)
      ~work:(fun ~worker:_ _i item -> if item = 5 then failwith "boom" else item)
      ~is_stop:(fun _ -> false)
      ()
  in
  Alcotest.(check bool) "run completes despite the crash" true c.Holistic.Pool.completed;
  Alcotest.(check (option int)) "no stop" None c.Holistic.Pool.first_stop;
  (match c.Holistic.Pool.quarantined with
   | [ (5, msg) ] ->
     Alcotest.(check bool)
       (Printf.sprintf "quarantine message mentions the exception (%s)" msg)
       true (contains ~sub:"boom" msg)
   | q ->
     Alcotest.failf "expected exactly job 5 quarantined, got [%s]"
       (String.concat "; " (List.map (fun (i, m) -> Printf.sprintf "(%d, %s)" i m) q)));
  let indices = List.map (fun (i, _, _) -> i) c.Holistic.Pool.results in
  Alcotest.(check (list int))
    "every other job ran once"
    (List.filter (fun i -> i <> 5) (List.init 50 Fun.id))
    (List.sort compare indices)

(* A transient crash (first attempt only) is retried once and does not
   quarantine: the completion is indistinguishable from a clean run. *)
let test_pool_worker_retry () =
  let tripped = Atomic.make false in
  let c =
    Holistic.Pool.run ~jobs:3 ~produce:(int_stream 50)
      ~work:(fun ~worker:_ _i item ->
        if item = 5 && not (Atomic.exchange tripped true) then failwith "flaky";
        item)
      ~is_stop:(fun _ -> false)
      ()
  in
  Alcotest.(check bool) "the crash really happened" true (Atomic.get tripped);
  Alcotest.(check bool) "run completes" true c.Holistic.Pool.completed;
  Alcotest.(check (list (pair int string))) "nothing quarantined" []
    c.Holistic.Pool.quarantined;
  let indices = List.map (fun (i, _, _) -> i) c.Holistic.Pool.results in
  Alcotest.(check (list int)) "every job ran once" (List.init 50 Fun.id)
    (List.sort compare indices)

let test_pool_bad_jobs () =
  Alcotest.(check bool) "jobs=0 rejected" true
    (try
       ignore
         (Holistic.Pool.run ~jobs:0
            ~produce:(int_stream 1)
            ~work:(fun ~worker:_ _i item -> item)
            ~is_stop:(fun _ -> false)
            ());
       false
     with Invalid_argument _ -> true)

(* ------------------------------------------------------------------ *)
(* Engine-vs-engine comparison helpers.                                 *)

let limits ?(max_schemas = 100_000) jobs = { Ck.default_limits with jobs; max_schemas }

let outcome_repr = function
  | Ck.Holds -> "holds"
  | Ck.Violated w -> Format.asprintf "violated@\n%a" Holistic.Witness.pp w
  | Ck.Aborted reason -> "aborted: " ^ reason
  | Ck.Partial { quarantined; reason } ->
    Format.asprintf "partial (%d quarantined): %s" (List.length quarantined) reason

(* Identical outcome (witness trace included), schema count, slot total
   and solver-step total between jobs=1 and jobs=[par_jobs]. *)
let check_identical ?max_schemas ?(par_jobs = 4) name u spec =
  let seq = Ck.verify_with_universe ~limits:(limits ?max_schemas 1) u spec in
  let par = Ck.verify_with_universe ~limits:(limits ?max_schemas par_jobs) u spec in
  Alcotest.(check string)
    (name ^ ": outcome/witness")
    (outcome_repr seq.Ck.outcome) (outcome_repr par.Ck.outcome);
  Alcotest.(check int) (name ^ ": schemas") seq.Ck.stats.schemas_checked
    par.Ck.stats.schemas_checked;
  Alcotest.(check int) (name ^ ": slots") seq.Ck.stats.slots_total par.Ck.stats.slots_total;
  Alcotest.(check int)
    (name ^ ": solver steps")
    seq.Ck.stats.solver_steps par.Ck.stats.solver_steps;
  Alcotest.(check int) (name ^ ": jobs recorded") par_jobs par.Ck.stats.jobs;
  (* When nothing stops the run early, no work is discarded, so the
     per-worker split must add up exactly to the totals. *)
  (match par.Ck.outcome with
   | Ck.Holds ->
     let sum f = List.fold_left (fun acc w -> acc + f w) 0 par.Ck.stats.workers in
     Alcotest.(check int)
       (name ^ ": worker schemas add up")
       par.Ck.stats.schemas_checked
       (sum (fun w -> w.Ck.schemas));
     Alcotest.(check int)
       (name ^ ": worker slots add up")
       par.Ck.stats.slots_total
       (sum (fun w -> w.Ck.slots))
   | _ -> ())

(* ------------------------------------------------------------------ *)
(* The paper's automata.                                                *)

let bv_tests =
  let u = lazy (Holistic.Universe.build Models.Bv_ta.automaton) in
  List.map
    (fun spec ->
      Alcotest.test_case ("bv " ^ spec.S.name) `Quick (fun () ->
          check_identical ("bv " ^ spec.S.name) (Lazy.force u) spec))
    Models.Bv_ta.all_specs

let simplified_u = lazy (Holistic.Universe.build Models.Simplified_ta.automaton)

(* The five Table 2 properties run to completion in both engines. *)
let simplified_full_tests =
  List.map
    (fun spec ->
      Alcotest.test_case ("simplified " ^ spec.S.name) `Slow (fun () ->
          check_identical ("simplified " ^ spec.S.name) (Lazy.force simplified_u) spec))
    Models.Simplified_ta.table2_specs

(* The symmetric _1 variants pin the deterministic schema-budget abort
   instead (identical abort reason, count and slots), keeping the suite
   affordable: a full run costs ~15 s per property per engine. *)
let simplified_budgeted_tests =
  let in_table2 (s : S.t) =
    List.exists (fun (t : S.t) -> t.name = s.name) Models.Simplified_ta.table2_specs
  in
  List.filter_map
    (fun (spec : S.t) ->
      if in_table2 spec then None
      else
        Some
          (Alcotest.test_case ("simplified " ^ spec.name ^ " (budgeted)") `Slow (fun () ->
               check_identical ~max_schemas:150
                 ("simplified " ^ spec.name)
                 (Lazy.force simplified_u) spec)))
    Models.Simplified_ta.all_specs

let test_naive_budget_abort () =
  let u = Holistic.Universe.build Models.Naive_ta.automaton in
  List.iter
    (fun (spec : S.t) ->
      check_identical ~max_schemas:200 ("naive " ^ spec.name) u spec)
    Models.Naive_ta.table2_specs

let test_broken_resilience_witness () =
  let u = Holistic.Universe.build Models.Simplified_ta.automaton_broken_resilience in
  check_identical "broken-resilience Inv1_0" u Models.Simplified_ta.inv1_0;
  (* And the shared outcome really is the counterexample. *)
  let r = Ck.verify_with_universe ~limits:(limits 4) u Models.Simplified_ta.inv1_0 in
  match r.Ck.outcome with
  | Ck.Violated w ->
    let value p = List.assoc p w.Holistic.Witness.params in
    Alcotest.(check bool) "witness breaks n > 3t" true (value "n" <= 3 * value "t")
  | _ -> Alcotest.fail "expected a counterexample"

(* ------------------------------------------------------------------ *)
(* Differential property over random DAG automata: whatever the
   sequential engine says, the parallel engine must say the same thing,
   schema-for-schema.                                                   *)

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

let drain_spec =
  S.liveness ~name:"drain" ~ltl:"<>(k[L0]=0 /\\ k[L1]=0 /\\ k[L2]=0)"
    ~target_violated:(C.some_nonempty [ "L0"; "L1"; "L2" ])
    ()

let engines_agree spec descs =
  let ta = build_ta descs in
  let verify jobs = Ck.verify ~limits:(limits ~max_schemas:5_000 jobs) ta spec in
  let seq = verify 1 in
  let par = verify 3 in
  outcome_repr seq.Ck.outcome = outcome_repr par.Ck.outcome
  && seq.Ck.stats.schemas_checked = par.Ck.stats.schemas_checked
  && seq.Ck.stats.slots_total = par.Ck.stats.slots_total

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random DAGs: reachability engines agree" ~count:40 arb_ta
         (engines_agree reach_spec));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random DAGs: liveness engines agree" ~count:40 arb_ta
         (engines_agree drain_spec));
  ]

let () =
  Alcotest.run "parallel"
    [
      ( "pool",
        [
          Alcotest.test_case "all jobs pass" `Quick test_pool_all_pass;
          Alcotest.test_case "first stop is sequential" `Quick
            test_pool_first_stop_deterministic;
          Alcotest.test_case "worker exception quarantines" `Quick
            test_pool_worker_exception;
          Alcotest.test_case "transient worker exception retries" `Quick
            test_pool_worker_retry;
          Alcotest.test_case "jobs=0 rejected" `Quick test_pool_bad_jobs;
        ] );
      ("bv jobs=1 vs jobs=4", bv_tests);
      ("simplified jobs=1 vs jobs=4", simplified_full_tests @ simplified_budgeted_tests);
      ( "abort and witness paths",
        [
          Alcotest.test_case "naive budget aborts identically" `Slow test_naive_budget_abort;
          Alcotest.test_case "broken-resilience witness identical" `Quick
            test_broken_resilience_witness;
        ] );
      ("random automata", qcheck_tests);
    ]
