(* Cross-validation of the incremental prefix-sharing discharge engine
   against the one-query-per-schema reference oracle (test/flat.ml).

   The checker promises the oracle's outcomes, witness traces, schema
   counts (= enumeration positions, so budget aborts land on the same
   schema) and slot totals, while solving no more simplex steps.  This
   suite pins that contract on:

   - every bundled bv-broadcast property and every simplified-consensus
     property (Table 2 rows in full, symmetric variants under a schema
     budget to pin the deterministic abort path);
   - the naive-consensus abort rows and the broken-resilience
     counterexample (witness equality included);
   - the parallel engine (jobs > 1) against the sequential one —
     outcome/witness/schemas/slots only: the subtree-pruned and
     prefix-hit counters legitimately differ in granularity (one
     sequential prune may surface as several pruned jobs), but never
     break the subset invariants between the counters;
   - a qcheck property over random small DAG automata, whose verdicts
     must also be confirmed by the explicit-state checker. *)

module A = Ta.Automaton
module G = Ta.Guard
module P = Ta.Pexpr
module C = Ta.Cond
module S = Ta.Spec
module Ck = Holistic.Checker

let limits ?(max_schemas = 100_000) ?(jobs = 1) () =
  { Ck.default_limits with max_schemas; jobs }

let outcome_repr = function
  | Ck.Holds -> "holds"
  | Ck.Violated w -> Format.asprintf "violated@\n%a" Holistic.Witness.pp w
  | Ck.Aborted reason -> "aborted: " ^ reason
  | Ck.Partial { quarantined; reason } ->
    Format.asprintf "partial (%d quarantined): %s" (List.length quarantined) reason

(* Checked + skipped is the whole transcript; core-guided and static
   prunes are subsets of all prunes. *)
let check_invariants name (r : Ck.result) =
  let s = r.Ck.stats in
  Alcotest.(check bool)
    (name ^ ": skipped <= schemas") true
    (s.schemas_skipped <= s.schemas_checked);
  Alcotest.(check bool)
    (name ^ ": core prunes <= prunes") true
    (s.core_prunes <= s.subtrees_pruned);
  Alcotest.(check bool)
    (name ^ ": static prunes <= prunes") true
    (s.static_prunes <= s.subtrees_pruned)

(* The sequential engine against the oracle: identical outcome (witness
   trace included), schema count and slot total; no more solver steps.
   Returns both results for further inspection. *)
let check_pair ?max_schemas name u spec =
  let flat = Flat.verify ?max_schemas u spec in
  let inc = Ck.verify_with_universe ~limits:(limits ?max_schemas ()) u spec in
  Alcotest.(check string)
    (name ^ ": outcome/witness")
    (outcome_repr flat.outcome) (outcome_repr inc.Ck.outcome);
  Alcotest.(check int) (name ^ ": schemas") flat.schemas inc.Ck.stats.schemas_checked;
  Alcotest.(check int) (name ^ ": slots") flat.slots inc.Ck.stats.slots_total;
  Alcotest.(check bool)
    (name ^ ": steps no worse")
    true
    (inc.Ck.stats.solver_steps <= flat.steps);
  check_invariants name inc;
  (flat, inc)

(* Parallel vs sequential, at 2 and 4 worker domains: same outcome,
   witness, schemas and slots (steps/hits excluded by design), and the
   counter invariants hold on every parallel run. *)
let check_par ?max_schemas name u spec =
  let seq = Ck.verify_with_universe ~limits:(limits ?max_schemas ()) u spec in
  List.iter
    (fun jobs ->
      let name = Printf.sprintf "%s jobs=%d" name jobs in
      let par = Ck.verify_with_universe ~limits:(limits ?max_schemas ~jobs ()) u spec in
      Alcotest.(check string)
        (name ^ ": par outcome/witness")
        (outcome_repr seq.Ck.outcome) (outcome_repr par.Ck.outcome);
      Alcotest.(check int) (name ^ ": par schemas") seq.Ck.stats.schemas_checked
        par.Ck.stats.schemas_checked;
      Alcotest.(check int) (name ^ ": par slots") seq.Ck.stats.slots_total
        par.Ck.stats.slots_total;
      check_invariants name par)
    [ 2; 4 ]

(* ------------------------------------------------------------------ *)
(* The paper's automata.                                                *)

let bv_u = lazy (Holistic.Universe.build Models.Bv_ta.automaton)

let bv_tests =
  List.map
    (fun (spec : S.t) ->
      Alcotest.test_case ("bv " ^ spec.name) `Quick (fun () ->
          ignore (check_pair ("bv " ^ spec.name) (Lazy.force bv_u) spec);
          check_par ("bv " ^ spec.name) (Lazy.force bv_u) spec))
    Models.Bv_ta.all_specs

let simplified_u = lazy (Holistic.Universe.build Models.Simplified_ta.automaton)

(* The pruning must actually fire somewhere cheap and deterministic:
   Inv2_0 pins a counter to zero initially while unlocked guards demand
   the matching shared variable to be positive, which the interval
   propagation refutes prefix-by-prefix.  Engine only — the oracle's
   run of this property is the slow path this engine exists to avoid
   (it is compared in full in the Slow suite below). *)
let test_pruning_fires () =
  let spec =
    List.find
      (fun (s : S.t) -> s.name = "Inv2_0")
      Models.Simplified_ta.table2_specs
  in
  let inc = Ck.verify_with_universe ~limits:(limits ()) (Lazy.force simplified_u) spec in
  (match inc.Ck.outcome with
   | Ck.Holds -> ()
   | o -> Alcotest.failf "Inv2_0 expected to hold, got %s" (outcome_repr o));
  Alcotest.(check bool) "subtrees pruned" true (inc.Ck.stats.subtrees_pruned > 0);
  Alcotest.(check bool) "schemas skipped" true (inc.Ck.stats.schemas_skipped > 0)

(* The five Table 2 properties run to completion in the engine and the
   oracle; on Inv2_0 at least a 3x solver-step reduction is asserted
   outright (measured: >100x). *)
let simplified_full_tests =
  List.map
    (fun (spec : S.t) ->
      Alcotest.test_case ("simplified " ^ spec.name) `Slow (fun () ->
          let flat, inc =
            check_pair ("simplified " ^ spec.name) (Lazy.force simplified_u) spec
          in
          if spec.name = "Inv2_0" then
            Alcotest.(check bool)
              "Inv2_0: at least 3x fewer simplex steps" true
              (3 * inc.Ck.stats.solver_steps <= flat.Flat.steps)))
    Models.Simplified_ta.table2_specs

(* The symmetric _1 variants pin the deterministic schema-budget abort:
   identical abort reason, schema count and slot total even when the
   budget trips inside a pruned subtree. *)
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
               ignore
                 (check_pair ~max_schemas:150
                    ("simplified " ^ spec.name)
                    (Lazy.force simplified_u) spec);
               check_par ~max_schemas:150
                 ("simplified " ^ spec.name)
                 (Lazy.force simplified_u) spec)))
    Models.Simplified_ta.all_specs

let test_naive_budget_abort () =
  let u = Holistic.Universe.build Models.Naive_ta.automaton in
  List.iter
    (fun (spec : S.t) ->
      ignore (check_pair ~max_schemas:200 ("naive " ^ spec.name) u spec);
      check_par ~max_schemas:200 ("naive " ^ spec.name) u spec)
    Models.Naive_ta.table2_specs

let test_broken_resilience_witness () =
  let u = Holistic.Universe.build Models.Simplified_ta.automaton_broken_resilience in
  let _, inc = check_pair "broken-resilience Inv1_0" u Models.Simplified_ta.inv1_0 in
  check_par "broken-resilience Inv1_0" u Models.Simplified_ta.inv1_0;
  match inc.Ck.outcome with
  | Ck.Violated w ->
    let value p = List.assoc p w.Holistic.Witness.params in
    Alcotest.(check bool) "witness breaks n > 3t" true (value "n" <= 3 * value "t")
  | _ -> Alcotest.fail "expected a counterexample"

(* ------------------------------------------------------------------ *)
(* Random small DAG automata: the engine and the oracle must agree
   schema-for-schema, and the shared verdict must be confirmed by the
   explicit-state checker at small parameters.                          *)

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

let engines_and_explicit_agree spec descs =
  let ta = build_ta descs in
  let flat = Flat.verify ~max_schemas:5_000 (Holistic.Universe.build ta) spec in
  let inc = Ck.verify ~limits:(limits ~max_schemas:5_000 ()) ta spec in
  outcome_repr flat.outcome = outcome_repr inc.Ck.outcome
  && flat.schemas = inc.Ck.stats.schemas_checked
  && flat.slots = inc.Ck.stats.slots_total
  && inc.Ck.stats.solver_steps <= flat.steps
  && inc.Ck.stats.core_prunes <= inc.Ck.stats.subtrees_pruned
  &&
  match inc.Ck.outcome with
  | Ck.Aborted _ | Ck.Partial _ -> QCheck.assume_fail ()
  | Ck.Holds ->
    List.for_all
      (fun n ->
        match Explicit.check ta spec [ ("n", n) ] with
        | Explicit.Holds -> true
        | Explicit.Violated _ -> false)
      [ 1; 2; 3; 4 ]
  | Ck.Violated w -> (
    List.assoc "n" w.Holistic.Witness.params <= 8
    &&
    match Explicit.check ta spec w.Holistic.Witness.params with
    | Explicit.Violated _ -> true
    | Explicit.Holds -> false)

(* A deterministic companion to the random sweep, shaped like Inv2_0:
   the only producer of [x] sits in an initial location that the spec's
   initial condition empties, so unlocking [x >= 1] is structurally
   fine (the producer's source is an initial location) but numerically
   impossible — exactly what the interval propagation refutes, prefix
   by prefix.  Pruning must fire, and the verdict must still agree
   with the oracle and the explicit-state checker. *)
let gadget_spec =
  S.invariant ~name:"gadget-reach-L3" ~ltl:"<>(k[L3] != 0)"
    ~init:(C.empty "L1")
    ~bad:[ ("L3 reached", C.some_nonempty [ "L3" ]) ]
    ()

let test_gadget_pruning () =
  let ta =
    A.make ~name:"gadget" ~params:[ "n" ] ~shared:[ "x" ]
      ~locations:[ "L0"; "L1"; "L2"; "L3" ]
      ~initial:[ "L0"; "L1" ]
      ~resilience:[ P.of_terms [ ("n", 1) ] (-1) ]
      ~population:(P.param "n")
      ~rules:
        [
          A.rule "ra" ~source:"L1" ~target:"L2" ~guard:G.tt
            ~update:[ ("x", 1) ] ~fairness:A.Unfair;
          A.rule "rb" ~source:"L0" ~target:"L3"
            ~guard:(G.ge1 "x" (P.const 1))
            ~update:[] ~fairness:A.Unfair;
        ]
      ()
  in
  let u = Holistic.Universe.build ta in
  let _, inc = check_pair "gadget reach-L3" u gadget_spec in
  check_par "gadget reach-L3" u gadget_spec;
  Alcotest.(check bool) "subtrees pruned" true (inc.Ck.stats.subtrees_pruned > 0);
  Alcotest.(check bool) "schemas skipped" true (inc.Ck.stats.schemas_skipped > 0);
  (match inc.Ck.outcome with
   | Ck.Holds -> ()
   | o -> Alcotest.failf "gadget expected to hold, got %s" (outcome_repr o));
  List.iter
    (fun n ->
      match Explicit.check ta gadget_spec [ ("n", n) ] with
      | Explicit.Holds -> ()
      | Explicit.Violated _ -> Alcotest.fail "explicit checker disagrees")
    [ 1; 2; 3 ]

(* ------------------------------------------------------------------ *)
(* Closed-form subtree totals against the plain walk.  The checker
   accounts a pruned subtree by its memoised schema count
   ({!Holistic.Schema.size}) and slot sum
   ({!Holistic.Encode.Sim.subtree_slots}); the oracle is one
   {!Holistic.Schema.walk} folding {!Holistic.Encode.Sim.leaf_slots}
   into every open ancestor, so each subtree's totals are known when
   the walk leaves it.  The oracle's own leaf slots are anchored to the
   one-schema encoder on the first schemas of each walk. *)

module Sim = Holistic.Encode.Sim

type frame = {
  f_sim : Sim.t;
  f_ctx : int;
  f_obs : int;
  f_rev_events : Holistic.Schema.event list;
  mutable f_n : int;
  mutable f_slots : int;
}

(* Walk up to [limit] schemas; subtrees the walk did not finish are not
   compared.  Returns the number of subtrees compared. *)
let check_subtree_totals ?(limit = 50_000) ?(anchored = 200) name u spec =
  let tree = Holistic.Schema.tree u spec in
  let memo = Sim.memo tree in
  let compared = ref 0 in
  let check f =
    let n = Holistic.Schema.size tree ~ctx:f.f_ctx ~obs_mask:f.f_obs in
    let slots = Sim.subtree_slots memo f.f_sim ~obs_mask:f.f_obs in
    if n <> f.f_n || slots <> f.f_slots then
      Alcotest.failf
        "%s: subtree (ctx %d, obs %d): memo (%d schemas, %d slots), walk (%d, %d)" name
        f.f_ctx f.f_obs n slots f.f_n f.f_slots;
    incr compared
  in
  let frame sim ctx obs rev_events =
    {
      f_sim = sim;
      f_ctx = ctx;
      f_obs = obs;
      f_rev_events = rev_events;
      f_n = 0;
      f_slots = 0;
    }
  in
  let root = frame (Sim.start u spec) 0 0 [] in
  let stack = ref [ root ] in
  let seen = ref 0 and stopped = ref false in
  let complete =
    Holistic.Schema.walk u spec
      ~on_enter:(fun ev ->
        let p = List.hd !stack in
        let ctx, obs =
          match ev with
          | Holistic.Schema.Unlock g -> (p.f_ctx lor (1 lsl g), p.f_obs)
          | Holistic.Schema.Observe i -> (p.f_ctx, p.f_obs lor (1 lsl i))
        in
        stack := frame (Sim.push_event p.f_sim ev) ctx obs (ev :: p.f_rev_events) :: !stack;
        `Descend)
      ~on_leave:(fun _ ->
        match !stack with
        | f :: (p :: _ as rest) ->
          if not !stopped then begin
            check f;
            p.f_n <- p.f_n + f.f_n;
            p.f_slots <- p.f_slots + f.f_slots
          end;
          stack := rest
        | _ -> assert false)
      ~on_schema:(fun () ->
        let f = List.hd !stack in
        let slots = Sim.leaf_slots f.f_sim in
        if !seen < anchored then begin
          let encoded = Holistic.Encode.encode u spec (List.rev f.f_rev_events) in
          Alcotest.(check int) (name ^ ": leaf slots = encoder slots") encoded.n_slots slots
        end;
        f.f_n <- f.f_n + 1;
        f.f_slots <- f.f_slots + slots;
        incr seen;
        stopped := !seen >= limit;
        not !stopped)
      ()
  in
  if complete then check root;
  Alcotest.(check bool) (name ^ ": subtrees compared") true (!compared > 0)

let every_bundled_spec =
  List.concat_map
    (fun (key, ta, specs) -> List.map (fun spec -> (key, ta, spec)) specs)
    ([
       ("bv", Models.Bv_ta.automaton, Models.Bv_ta.all_specs);
       ("naive", Models.Naive_ta.automaton, Models.Naive_ta.table2_specs);
       ("simplified", Models.Simplified_ta.automaton, Models.Simplified_ta.all_specs);
       ("benor", Models.Ben_or.automaton, Models.Ben_or.all_specs);
     ]
    @ List.map
        (fun (e : Models.Zoo.entry) -> ("zoo:" ^ e.key, e.automaton, List.map fst e.specs))
        Models.Zoo.entries)

let test_subtree_totals_oracle () =
  let universes = Hashtbl.create 8 in
  List.iter
    (fun (key, ta, (spec : S.t)) ->
      let u =
        match Hashtbl.find_opt universes key with
        | Some u -> u
        | None ->
          let u = Holistic.Universe.build ta in
          Hashtbl.add universes key u;
          u
      in
      check_subtree_totals (key ^ " " ^ spec.name) u spec)
    every_bundled_spec

(* ------------------------------------------------------------------ *)
(* Schema budgets inside pruned subtrees.  A pruned subtree is accounted
   in closed form unless the budget falls inside it; then the checker
   descends only into the children that straddle the budget.  For every
   budget strictly inside a pruned subtree and at each of its edges, the
   capped run must agree with the uninterrupted one — the same abort
   position, the skipped positions and slot sum of its first [k]
   positions, its certificate records truncated at [k] — and with the
   parallel engine (and, where cheap, the oracle) under the same cap.  A
   budget abort lands exactly on the budget: the final journal frontier
   is [max_schemas], sequentially and in parallel. *)

(* (kind, position, span) of every certificate line; a schema line
   spans one position. *)
let cert_records path =
  let module J = Jsonc in
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | exception End_of_file ->
      close_in ic;
      List.rev acc
    | line when String.trim line = "" -> go acc
    | line ->
      let j = J.of_string line in
      let kind = J.to_str (J.member "kind" j) in
      let span = if kind = "schema" then 1 else J.to_int (J.member "span" j) in
      go ((kind, J.to_int (J.member "position" j), span) :: acc)
  in
  go []

(* A sequential run with a certificate sink and a checkpoint: the result,
   its certificate records and its final journal. *)
let recorded_run ~limits u spec =
  let certs_path = Filename.temp_file "holistic_certs" ".jsonl" in
  let ckpt = Filename.temp_file "holistic_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> List.iter Sys.remove [ certs_path; ckpt ])
    (fun () ->
      let oc = open_out certs_path in
      let sink = Holistic.Certs.create oc in
      let r = Ck.verify_with_universe ~limits ~certs:sink ~checkpoint:ckpt u spec in
      close_out oc;
      let journal =
        match Holistic.Journal.load ~path:ckpt with
        | Ok j -> j
        | Error e -> Alcotest.failf "journal unreadable: %s" e
      in
      (r, cert_records certs_path, journal))

(* The frontier of the final journal of a checkpointed run. *)
let final_frontier ~limits u spec =
  let ckpt = Filename.temp_file "holistic_ckpt" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove ckpt)
    (fun () ->
      ignore (Ck.verify_with_universe ~limits ~checkpoint:ckpt u spec);
      match Holistic.Journal.load ~path:ckpt with
      | Ok j -> j.frontier
      | Error e -> Alcotest.failf "journal unreadable: %s" e)

(* Budgets at the edges of, and strictly inside, the two largest pruned
   subtrees of a transcript. *)
let budgets_in_pruned records =
  let pruned = List.filter (fun (kind, _, span) -> kind <> "schema" && span >= 3) records in
  let largest =
    List.filteri (fun i _ -> i < 2)
      (List.sort (fun (_, _, a) (_, _, b) -> compare b a) pruned)
  in
  if largest = [] then Alcotest.fail "no pruned subtree to place a budget in";
  List.sort_uniq compare
    (List.concat_map
       (fun (_, p0, n) -> [ p0; p0 + 1; p0 + (n / 2); p0 + n - 1; p0 + n ])
       largest)

(* Slot sum of the first [k] schemas of the preorder, by the plain
   enumeration and the slot simulation. *)
let prefix_slots u spec k =
  let slots = ref 0 and seen = ref 0 in
  ignore
    (Holistic.Schema.enumerate u spec ~on_schema:(fun schema ->
         if !seen < k then begin
           let sim = List.fold_left Sim.push_event (Sim.start u spec) schema in
           slots := !slots + Sim.leaf_slots sim;
           incr seen
         end;
         !seen < k));
  !slots

let check_budgets_in_pruned name ?(static = true) ?(oracle = false) u spec =
  let limits = { (limits ()) with static } in
  let full, records, _ = recorded_run ~limits u spec in
  let total = full.Ck.stats.schemas_checked in
  List.iter
    (fun k ->
      let name = Printf.sprintf "%s, budget %d" name k in
      let capped, capped_records, journal =
        recorded_run ~limits:{ limits with max_schemas = k } u spec
      in
      let want_outcome =
        if k >= total then outcome_repr full.Ck.outcome
        else Printf.sprintf "aborted: schema budget exceeded (> %d schemas)" k
      in
      let positions = min k total in
      let skipped =
        List.fold_left
          (fun acc (kind, p, span) ->
            if kind = "schema" then acc else acc + max 0 (min (p + span) k - p))
          0 records
      in
      let truncated =
        List.filter_map
          (fun (kind, p, span) -> if p < k then Some (kind, p, min span (k - p)) else None)
          records
      in
      let st = capped.Ck.stats in
      Alcotest.(check string)
        (name ^ ": outcome") want_outcome (outcome_repr capped.Ck.outcome);
      Alcotest.(check int) (name ^ ": schemas") positions st.schemas_checked;
      Alcotest.(check int) (name ^ ": skipped") skipped st.schemas_skipped;
      Alcotest.(check int) (name ^ ": slots") (prefix_slots u spec k) st.slots_total;
      Alcotest.(check (list (triple string int int)))
        (name ^ ": certificate spans") truncated capped_records;
      Alcotest.(check int) (name ^ ": journal frontier") positions journal.frontier;
      Alcotest.(check int) (name ^ ": journal skipped") st.schemas_skipped journal.skipped;
      Alcotest.(check int)
        (name ^ ": journal checked") (positions - st.schemas_skipped) journal.checked;
      Alcotest.(check int) (name ^ ": journal slots") st.slots_total journal.slots;
      if k < total then
        List.iter
          (fun jobs ->
            Alcotest.(check int)
              (Printf.sprintf "%s: abort frontier = budget (jobs=%d)" name jobs)
              k
              (final_frontier ~limits:{ limits with max_schemas = k; jobs } u spec))
          [ 1; 2 ];
      if oracle then ignore (check_pair ~max_schemas:k name u spec);
      check_par ~max_schemas:k name u spec)
    (budgets_in_pruned records)

let test_budgets_in_pruned () =
  let simplified = Lazy.force simplified_u in
  let inv2_0 = Models.Simplified_ta.inv2_0 in
  (* Statically refuted at the root: one subtree spans the transcript. *)
  check_budgets_in_pruned "simplified Inv2_0 static" simplified inv2_0;
  check_budgets_in_pruned "bv BV-Just0 static" ~oracle:true (Lazy.force bv_u)
    (List.hd Models.Bv_ta.all_specs);
  (* Prefix-UNSAT prunes interleaved with checked schemas. *)
  check_budgets_in_pruned "simplified Inv2_0 prefix" ~static:false simplified inv2_0

(* ------------------------------------------------------------------ *)
(* End-to-end certificate emission: run the engine with a sink
   attached, then replay every emitted JSONL line against the
   standalone checker — the in-process version of `verify --emit-certs`
   piped into `check-cert`.  On a Holds outcome the emitted
   certificates must cover the whole transcript: one line per
   discharged schema, one spanning line per pruned or statically
   refuted subtree. *)

let replay_certificates path =
  let module J = Jsonc in
  let ic = open_in path in
  let lines = ref 0 and covered = ref 0 in
  (try
     while true do
       let line = input_line ic in
       if String.trim line <> "" then begin
         incr lines;
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
         covered :=
           !covered
           + (if kind = "prefix" || kind = "static" then
                J.to_int (J.member "span" j)
              else 1);
         match
           Smt.Certcheck.validate_query ~atoms ~branches
             (Smt.Certificate.of_json (J.member "cert" j))
         with
         | Ok () -> ()
         | Error msg -> Alcotest.failf "certificate line %d rejected: %s" !lines msg
       end
     done
   with End_of_file -> close_in ic);
  (!lines, !covered)

(* Each spec with its own sink at [jobs] (a sink makes the run
   sequential): every record replays, and on a Holds outcome the records
   tile [0, schemas) in preorder. *)
let emit_and_replay name u (specs : S.t list) ~jobs =
  List.iter
    (fun (spec : S.t) ->
      let name = Printf.sprintf "%s %s jobs=%d" name spec.name jobs in
      let path = Filename.temp_file "holistic_certs" ".jsonl" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          let oc = open_out path in
          let sink = Holistic.Certs.create oc in
          let r = Ck.verify_with_universe ~limits:(limits ~jobs ()) ~certs:sink u spec in
          close_out oc;
          Alcotest.(check int) (name ^ ": run sequentially") 1 r.Ck.stats.jobs;
          Alcotest.(check int)
            (name ^ ": no emission failures") 0 (Holistic.Certs.failed sink);
          Alcotest.(check bool)
            (name ^ ": certificates emitted") true
            (Holistic.Certs.emitted sink > 0);
          let lines, _ = replay_certificates path in
          Alcotest.(check int)
            (name ^ ": every certificate written") (Holistic.Certs.emitted sink) lines;
          if r.Ck.outcome = Ck.Holds then
            Alcotest.(check int)
              (name ^ ": records tile [0, schemas)")
              r.Ck.stats.schemas_checked
              (List.fold_left
                 (fun next (kind, p, span) ->
                   if p <> next then
                     Alcotest.failf "%s: %s record at %d, expected %d" name kind p next;
                   p + span)
                 0 (cert_records path))))
    specs

let test_certificate_emission () =
  List.iter
    (fun jobs -> emit_and_replay "bv" (Lazy.force bv_u) Models.Bv_ta.all_specs ~jobs)
    [ 1; 2 ]

let qcheck_tests =
  [
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random DAGs: reachability, oracle = engine = explicit"
         ~count:60 arb_ta
         (engines_and_explicit_agree reach_spec));
    QCheck_alcotest.to_alcotest
      (QCheck.Test.make ~name:"random DAGs: liveness, oracle = engine = explicit"
         ~count:60 arb_ta
         (engines_and_explicit_agree drain_spec));
    Alcotest.test_case "crafted gadget: pruning fires, explicit agrees" `Quick
      test_gadget_pruning;
  ]

let () =
  Alcotest.run "incremental"
    [
      ("bv engine vs oracle", bv_tests @ [ Alcotest.test_case "pruning fires" `Quick test_pruning_fires ]);
      ("simplified engine vs oracle", simplified_full_tests @ simplified_budgeted_tests);
      ( "abort and witness paths",
        [
          Alcotest.test_case "naive budget aborts identically" `Slow test_naive_budget_abort;
          Alcotest.test_case "broken-resilience witness identical" `Quick
            test_broken_resilience_witness;
        ] );
      ("random automata", qcheck_tests);
      ( "closed-form subtree totals",
        [
          Alcotest.test_case "memo = walk fold at every subtree, every bundled and zoo spec"
            `Slow test_subtree_totals_oracle;
          Alcotest.test_case "budgets inside and at the edges of pruned subtrees" `Quick
            test_budgets_in_pruned;
        ] );
      ( "certificates",
        [
          Alcotest.test_case "emit, replay with the standalone checker" `Slow
            test_certificate_emission;
        ] );
    ]
