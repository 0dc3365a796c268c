module A = Ta.Automaton

type limits = {
  max_schemas : int;
  time_budget : float option;
  lia_max_steps : int;
  jobs : int;
  incremental : bool;
  static : bool;
}

let default_limits =
  {
    max_schemas = 100_000;
    time_budget = None;
    lia_max_steps = 200_000;
    jobs = 1;
    incremental = true;
    static = true;
  }

(* Budget preset shared by the fuzzing cross-validators (lib/fuzz and
   test/test_crossval): the random automata are tiny, so any run that
   needs more schemas than this is pathological and is skipped rather
   than solved to exhaustion. *)
let crossval_limits = { default_limits with max_schemas = 20_000 }

type outcome =
  | Holds
  | Violated of Witness.t
  | Aborted of string
  | Partial of { quarantined : (int * string) list; reason : string }

type worker_stat = {
  worker_id : int;
  schemas : int;
  slots : int;
  solver_steps : int;
  busy_time : float;
}

type stats = {
  schemas_checked : int;
  schemas_skipped : int;
  subtrees_pruned : int;
  core_prunes : int;
  static_prunes : int;
  prefix_hits : int;
  slots_total : int;
  solver_steps : int;
  encode_time : float;
  solve_time : float;
  time : float;
  jobs : int;
  workers : worker_stat list;
  cache : Smt.Portfolio.counters;
      (* discharge-cache effectiveness; all-zero without ?portfolio *)
}

type result = { spec : Ta.Spec.t; outcome : outcome; stats : stats }

(* The structural preconditions, delegated to the static analyzer: DAG
   shape and name sanity (TA001-TA004), refutable safety specs (TA012),
   liveness shape and absorbing targets (TA013/TA014), spec name
   resolution (TA011).  Kept as a raising wrapper for backwards
   compatibility with callers that expect Invalid_argument. *)
let precheck ta (spec : Ta.Spec.t) =
  match Analysis.errors (Analysis.check_structure ta @ Analysis.check_spec ta spec) with
  | [] -> ()
  | d :: _ -> invalid_arg (Format.asprintf "Checker: %s: %a" ta.A.name Analysis.pp d)

(* ------------------------------------------------------------------- *)
(* Run context: cooperative interrupts, deadlines, checkpoint journal.  *)

(* Process-wide interrupt request (SIGINT/SIGTERM handlers, tests).  All
   engines poll it at every budget check and — through the [stop]
   closure threaded into the solver — every {!Smt.Simplex.stop_interval}
   pivots, so a run winds down, flushes its checkpoint and returns a
   resumable [Aborted] within one solver quantum. *)
let interrupted = Atomic.make false
let request_interrupt () = Atomic.set interrupted true
let clear_interrupt () = Atomic.set interrupted false
let interrupt_requested () = Atomic.get interrupted

(* Everything an engine needs beyond [limits], bundled once per run.
   [r_now] is the budget clock (a fake clock in tests makes deadline
   aborts deterministic); statistics timings always use the real clock.
   [r_deadline] is in [r_now]'s timeline and already accounts for the
   wall-clock spent by previous slices of a resumed run. *)
(* Certified static refutations of the invariant engine, indexed for
   O(1) lookup during enumeration: [s_guard.(g)] refutes every schema
   unlocking guard [g], [s_root] refutes every schema of the spec.  Each
   refutation's certificate was validated at build time (see
   {!Analysis.Invariants}); [None] entries have no certified refutation
   and are discharged by the solver as usual. *)
type static_info = {
  s_root : Analysis.Invariants.refutation option;
  s_guard : Analysis.Invariants.refutation option array;
}

type run = {
  r_limits : limits;
  r_base : Journal.t;  (* loaded checkpoint (or fresh): totals of [0, frontier) *)
  r_resume_from : int;  (* = r_base.frontier; positions below are fast-forwarded *)
  r_tracker : Journal.Tracker.tracker;
  r_now : unit -> float;
  r_deadline : float option;
  r_failpoint : (int -> unit) option;  (* fault injection for crash tests *)
  r_certs : Certs.sink option;  (* [--emit-certs]: sequential engines only *)
  r_static : static_info option;  (* [--static]: certified zero-step prunes *)
  r_portfolio : Smt.Portfolio.t option;  (* [--memo]/[--cache]: leaf discharge cache *)
  r_origin : string;  (* "<automaton>/<spec>", recorded in new cache entries *)
}

(* Per-engine portfolio handle plumbing: [None] everywhere when the run
   carries no portfolio, so the default path is byte-for-byte the
   uncached engine. *)
let pf_handle run = Option.map (Smt.Portfolio.handle ~origin:run.r_origin) run.r_portfolio
let pf_counters = function
  | None -> Smt.Portfolio.zero_counters
  | Some h -> Smt.Portfolio.counters h
let pf_flush = function None -> () | Some h -> Smt.Portfolio.flush h

let cache_delta (c : Smt.Portfolio.counters) =
  {
    Journal.zero_delta with
    d_cache_hits = c.hits;
    d_cache_misses = c.misses;
    d_cache_cross = c.cross;
    d_wins_interval = c.w_interval;
    d_wins_cooper = c.w_cooper;
    d_wins_simplex = c.w_simplex;
  }

(* The certified refutation covering every schema whose event list
   includes [events] as a prefix, if any: the root refutation, or the
   first statically-false guard unlocked along the way. *)
let static_refutation run events =
  match run.r_static with
  | None -> None
  | Some si -> (
    match si.s_root with
    | Some r -> Some r
    | None ->
      List.find_map
        (function
          | Schema.Unlock g -> si.s_guard.(g)
          | Schema.Observe _ -> None)
        events)

(* Lookup for a single event pushed on an already-clean prefix. *)
let static_refutation_event run (ev : Schema.event) =
  match (run.r_static, ev) with
  | Some si, Schema.Unlock g -> si.s_guard.(g)
  | _ -> None

let make_stop run () =
  Atomic.get interrupted
  || (match run.r_deadline with Some d -> run.r_now () >= d | None -> false)

let check_deadline run =
  if Atomic.get interrupted then Some `Interrupted
  else
    match run.r_deadline with
    | Some d when run.r_now () >= d -> Some `Deadline
    | _ -> None

(* Decide [atoms /\ (one cube per branch entry)] by depth-first case
   analysis over the factored justice branches; every path is a plain
   LIA conjunction.  [stop] is the deadline/interrupt predicate: when it
   fires inside the solver the query answers [`Timeout] — typed apart
   from [`Unknown], which means the branch-and-bound budget ran dry on a
   hard query and gets one escalating retry (4x the budget); a timeout
   is never retried, the deadline has already passed. *)
let solve_schema ?steps ?portfolio ~limits ?stop (encoded : Encode.encoded) =
  (* Leaf conjunctions already refuted in an earlier attempt, keyed by
     the path of alternative indices through the branch product.  UNSAT
     is budget-independent, so the escalating retry can skip straight to
     the alternative whose budget actually ran dry instead of re-proving
     every refuted cube at 4x the cost. *)
  let refuted = Hashtbl.create 8 in
  let justice = encoded.Encode.branches <> [] in
  let leaf_solve ~max_steps atoms =
    match portfolio with
    | Some h -> Smt.Portfolio.solve ?steps ~max_steps ?stop ~justice h atoms
    | None -> Smt.Lia.solve ?steps ~max_steps ?stop atoms
  in
  let attempt ~max_steps =
    let rec go path atoms branches =
      match branches with
      | [] ->
        if Hashtbl.mem refuted path then `Unsat
        else (
          match leaf_solve ~max_steps atoms with
          | Smt.Lia.Sat m -> `Sat m
          | Smt.Lia.Unsat ->
            Hashtbl.replace refuted path ();
            `Unsat
          | Smt.Lia.Unknown -> `Unknown
          | Smt.Lia.Timeout -> `Timeout)
      | alternatives :: rest ->
        let rec try_alts i = function
          | [] -> `Unsat
          | cube :: others -> (
            match go (i :: path) (cube @ atoms) rest with
            | `Sat m -> `Sat m
            | (`Unknown | `Timeout) as r -> r
            | `Unsat -> try_alts (i + 1) others)
        in
        try_alts 0 alternatives
    in
    (* The conjunctive part is usually already unsatisfiable; only then
       expand the justice case-split product.  Path [-1] keeps the
       pre-pass apart from the branch leaves (whose paths are built from
       nonnegative alternative indices). *)
    match go [ -1 ] encoded.atoms [] with
    | (`Unsat | `Unknown | `Timeout) as r -> r
    | `Sat m ->
      if encoded.branches = [] then `Sat m else go [] encoded.atoms encoded.branches
  in
  match attempt ~max_steps:limits.lia_max_steps with
  | `Unknown -> attempt ~max_steps:(4 * limits.lia_max_steps)
  | r -> r

let budget_messages ~max_schemas_hit ~schemas ~budget =
  if max_schemas_hit then Printf.sprintf "schema budget exceeded (> %d schemas)" schemas
  else
    Printf.sprintf "time budget exceeded (> %.0f s, %d schemas checked)" budget schemas

let unknown_message = "solver returned unknown (branch-and-bound budget)"

let timeout_message = "time budget exceeded inside schema discharge (solver deadline)"

let interrupt_message = "interrupted; partial run saved, rerun with --resume to continue"

let deadline_message run ~position =
  match check_deadline run with
  | Some `Interrupted -> Some interrupt_message
  | Some `Deadline ->
    Some
      (budget_messages ~max_schemas_hit:false ~schemas:position
         ~budget:(Option.value run.r_limits.time_budget ~default:0.0))
  | None -> None

(* The diagnostic for the should-not-happen case where the enumeration
   callback chain stops without a recorded cause. *)
let stopped_unexpectedly ~position ~worker =
  Printf.sprintf "enumeration stopped unexpectedly (last completed preorder position %d%s)"
    position
    (match worker with None -> "" | Some w -> Printf.sprintf ", worker %d" w)

(* Totals of the checkpointed prefix [0, frontier), added to the stats
   of the current slice so a resumed run reports the same cumulative
   schema/step counts as an uninterrupted one. *)
let stats_plus_base (base : Journal.t) s =
  {
    s with
    schemas_checked = s.schemas_checked + base.Journal.checked + base.Journal.skipped;
    schemas_skipped = s.schemas_skipped + base.Journal.skipped;
    subtrees_pruned = s.subtrees_pruned + base.Journal.pruned;
    core_prunes = s.core_prunes + base.Journal.core_pruned;
    static_prunes = s.static_prunes + base.Journal.static;
    prefix_hits = s.prefix_hits + base.Journal.hits;
    slots_total = s.slots_total + base.Journal.slots;
    solver_steps = s.solver_steps + base.Journal.steps;
    encode_time = s.encode_time +. Journal.s_of_us base.Journal.encode_us;
    solve_time = s.solve_time +. Journal.s_of_us base.Journal.solve_us;
    time = s.time +. Journal.s_of_us base.Journal.elapsed_us;
    cache =
      Smt.Portfolio.add_counters s.cache
        {
          Smt.Portfolio.hits = base.Journal.cache_hits;
          misses = base.Journal.cache_misses;
          cross = base.Journal.cache_cross;
          w_interval = base.Journal.wins_interval;
          w_cooper = base.Journal.wins_cooper;
          w_simplex = base.Journal.wins_simplex;
        };
  }

(* Fail-soft decision rule.  A run that quarantined positions can still
   decide normally when the deciding schema precedes every hole (the
   transcript up to the decision is complete); otherwise the verdict is
   [Partial]: the holes may hide the true first deciding schema. *)
let partialize ~quarantined ~decided_at outcome =
  match quarantined with
  | [] -> outcome
  | (q0, _) :: _ -> (
    match decided_at with
    | Some p when p < q0 -> outcome
    | _ ->
      let reason =
        match outcome with
        | Holds -> "every non-quarantined schema is unsatisfiable"
        | Violated _ ->
          Printf.sprintf
            "violation witness found at position %d, after quarantined position %d (an \
             earlier violation is possible)"
            (Option.value decided_at ~default:(-1))
            q0
        | Aborted reason -> reason
        | Partial { reason; _ } -> reason
      in
      Partial { quarantined; reason })

(* ------------------------------------------------------------------- *)
(* Flat sequential engine: one self-contained query per schema.  The
   reference implementation everything else is pinned to — the parallel
   engine by test/test_parallel.ml, the incremental engines by
   test/test_incremental.ml. *)

let verify_flat_sequential ~run u (spec : Ta.Spec.t) =
  let limits = run.r_limits in
  let t0 = Unix.gettimeofday () in
  let stop = make_stop run in
  let ph = pf_handle run in
  let pos = ref 0 in  (* global preorder position; < r_resume_from is fast-forwarded *)
  let schemas = ref 0 in
  let slots = ref 0 in
  let steps = ref 0 in
  let statics = ref 0 in
  let encode_t = ref 0.0 in
  let solve_t = ref 0.0 in
  let found = ref None in
  let decided_at = ref None in
  let aborted = ref None in
  (* Zero-step static discharge: the invariant engine's certificate
     refutes the schema's query outright, so neither the encoder nor the
     solver runs.  Only the slot simulation does, so the reported slot
     totals stay those of the full encoding. *)
  let discharge_static schema refutation =
    let sim = List.fold_left Encode.Sim.push_event (Encode.Sim.start u spec) schema in
    let n_slots = Encode.Sim.leaf_slots sim in
    incr schemas;
    incr statics;
    slots := !slots + n_slots;
    (match run.r_certs with
    | Some sink ->
      Certs.emit_static sink ~position:!pos ~span:1
        refutation.Analysis.Invariants.atoms refutation.Analysis.Invariants.cert
    | None -> ());
    Journal.Tracker.note run.r_tracker ~start:!pos ~span:1
      { Journal.zero_delta with d_checked = 1; d_slots = n_slots; d_static = 1 };
    incr pos;
    true
  in
  (* Discharge one schema; raises propagate to the retry/quarantine
     wrapper below.  [r_failpoint] injects faults for the crash tests. *)
  let discharge schema =
    (match run.r_failpoint with Some f -> f !pos | None -> ());
    let steps0 = !steps in
    let pc0 = pf_counters ph in
    let t1 = Unix.gettimeofday () in
    let encoded = Encode.encode u spec schema in
    let t2 = Unix.gettimeofday () in
    let verdict = solve_schema ~steps ?portfolio:ph ~limits ~stop encoded in
    let t3 = Unix.gettimeofday () in
    let dcache = Smt.Portfolio.sub_counters (pf_counters ph) pc0 in
    (encoded, verdict, t2 -. t1, t3 -. t2, !steps - steps0, dcache)
  in
  let handle schema (encoded, verdict, et, st, dsteps, dcache) =
    incr schemas;
    slots := !slots + encoded.Encode.n_slots;
    encode_t := !encode_t +. et;
    solve_t := !solve_t +. st;
    match verdict with
    | `Unsat ->
      (match run.r_certs with
      | Some sink -> Certs.emit_schema sink ~position:!pos encoded
      | None -> ());
      Journal.Tracker.note run.r_tracker ~start:!pos ~span:1
        (Journal.add_delta (cache_delta dcache)
           {
             Journal.zero_delta with
             d_checked = 1;
             d_slots = encoded.Encode.n_slots;
             d_steps = dsteps;
             d_encode_us = Journal.us_of_s et;
             d_solve_us = Journal.us_of_s st;
           });
      incr pos;
      true
    | `Sat model ->
      found := Some (Witness.of_model u spec schema encoded model);
      decided_at := Some !pos;
      incr pos;
      false
    | `Unknown ->
      aborted := Some unknown_message;
      decided_at := Some !pos;
      incr pos;
      false
    | `Timeout ->
      aborted := Some timeout_message;
      decided_at := Some !pos;
      incr pos;
      false
  in
  let complete =
    Schema.enumerate u spec ~on_schema:(fun schema ->
        if !pos < run.r_resume_from then begin
          (* Discharged UNSAT by a previous slice: fast-forward. *)
          incr pos;
          true
        end
        else if !pos >= limits.max_schemas then begin
          aborted := Some (budget_messages ~max_schemas_hit:true ~schemas:!pos ~budget:0.0);
          false
        end
        else
          match deadline_message run ~position:!pos with
          | Some msg ->
            aborted := Some msg;
            false
          | None -> (
            match static_refutation run schema with
            | Some refutation -> discharge_static schema refutation
            | None -> (
            match discharge schema with
            | r -> handle schema r
            | exception e -> (
              (* Fail soft: one retry, then quarantine the position and
                 keep verifying the rest of the enumeration. *)
              match discharge schema with
              | r -> handle schema r
              | exception e2 ->
                let m1 = Printexc.to_string e and m2 = Printexc.to_string e2 in
                let msg =
                  if String.equal m1 m2 then m2
                  else Printf.sprintf "%s (first attempt: %s)" m2 m1
                in
                Journal.Tracker.quarantine run.r_tracker !pos msg;
                incr pos;
                true))))
  in
  let time = Unix.gettimeofday () -. t0 in
  pf_flush ph;
  let stats =
    stats_plus_base run.r_base
      {
        schemas_checked = max 0 (!pos - run.r_resume_from);
        schemas_skipped = 0;
        subtrees_pruned = 0;
        core_prunes = 0;
        static_prunes = !statics;
        prefix_hits = 0;
        slots_total = !slots;
        solver_steps = !steps;
        encode_time = !encode_t;
        solve_time = !solve_t;
        time;
        jobs = 1;
        workers =
          [
            {
              worker_id = 0;
              schemas = !schemas;
              slots = !slots;
              solver_steps = !steps;
              busy_time = !encode_t +. !solve_t;
            };
          ];
        cache = pf_counters ph;
      }
  in
  let outcome =
    match (!found, !aborted, complete) with
    | Some w, _, _ -> Violated w
    | None, Some reason, _ -> Aborted reason
    | None, None, true -> Holds
    | None, None, false ->
      Aborted (stopped_unexpectedly ~position:(!pos - 1) ~worker:None)
  in
  let quarantined = (Journal.Tracker.snapshot run.r_tracker).Journal.quarantined in
  { spec; outcome = partialize ~quarantined ~decided_at:!decided_at outcome; stats }

(* ------------------------------------------------------------------- *)
(* Flat parallel engine: the producer runs the enumeration (and the
   budget checks, so aborts stay deterministic) on the calling domain
   while [limits.jobs] worker domains encode and solve.  Each schema is
   an independent LIA query; the pool's first-stop-in-enumeration-order
   contract makes outcomes, witnesses and schema counts bit-identical to
   [verify_flat_sequential] (time-budget aborts excepted: wall-clock is
   inherently racy, sequentially too). *)

type job_outcome = J_unsat | J_sat of Witness.t | J_unknown | J_timeout

type job_result = {
  n_slots : int;
  job_steps : int;
  j_encode_t : float;
  j_solve_t : float;
  j_static : bool;  (* discharged by the invariant engine, zero steps *)
  j_cache : Smt.Portfolio.counters;  (* this job's cache/portfolio activity *)
  verdict : job_outcome;
}

let verify_flat_parallel ~run u (spec : Ta.Spec.t) =
  let limits = run.r_limits in
  let t0 = Unix.gettimeofday () in
  let stop = make_stop run in
  (* One portfolio handle per worker domain: local read memo + buffered
     writes, so the shared cache's shard mutexes are off the hot path. *)
  let phs = Array.init limits.jobs (fun _ -> pf_handle run) in
  let resume_from = run.r_resume_from in
  (* Pool job index [i] is preorder position [resume_from + i]: the
     producer fast-forwards the checkpointed prefix without pushing. *)
  let emitted = ref 0 in
  let aborted = ref None in
  let produce ~push =
    Schema.enumerate u spec ~on_schema:(fun schema ->
        if !emitted < resume_from then begin
          incr emitted;
          true
        end
        else if !emitted >= limits.max_schemas then begin
          aborted :=
            Some (budget_messages ~max_schemas_hit:true ~schemas:!emitted ~budget:0.0);
          false
        end
        else
          match deadline_message run ~position:!emitted with
          | Some msg ->
            aborted := Some msg;
            false
          | None ->
            if push schema then begin
              incr emitted;
              true
            end
            else false)
  in
  let work ~worker index schema =
    (match run.r_failpoint with Some f -> f (resume_from + index) | None -> ());
    match static_refutation run schema with
    | Some _ ->
      (* Statically refuted: the verdict is a certified UNSAT, so only
         the slot simulation runs (same accounting as the sequential
         flat engine). *)
      let t1 = Unix.gettimeofday () in
      let sim =
        List.fold_left Encode.Sim.push_event (Encode.Sim.start u spec) schema
      in
      {
        n_slots = Encode.Sim.leaf_slots sim;
        job_steps = 0;
        j_encode_t = Unix.gettimeofday () -. t1;
        j_solve_t = 0.0;
        j_static = true;
        j_cache = Smt.Portfolio.zero_counters;
        verdict = J_unsat;
      }
    | None ->
      let ph = phs.(worker) in
      let pc0 = pf_counters ph in
      let steps = ref 0 in
      let t1 = Unix.gettimeofday () in
      let encoded = Encode.encode u spec schema in
      let t2 = Unix.gettimeofday () in
      let verdict =
        match solve_schema ~steps ?portfolio:ph ~limits ~stop encoded with
        | `Unsat -> J_unsat
        | `Sat model -> J_sat (Witness.of_model u spec schema encoded model)
        | `Unknown -> J_unknown
        | `Timeout -> J_timeout
      in
      {
        n_slots = encoded.n_slots;
        job_steps = !steps;
        j_encode_t = t2 -. t1;
        j_solve_t = Unix.gettimeofday () -. t2;
        j_static = false;
        j_cache = Smt.Portfolio.sub_counters (pf_counters ph) pc0;
        verdict;
      }
  in
  let is_stop r =
    match r.verdict with J_unsat -> false | J_sat _ | J_unknown | J_timeout -> true
  in
  (* Checkpoint hook: every UNSAT discharge advances the frontier (the
     tracker folds out-of-order spans once contiguous). *)
  let on_result i r =
    if r.verdict = J_unsat then
      Journal.Tracker.note run.r_tracker ~start:(resume_from + i) ~span:1
        (Journal.add_delta (cache_delta r.j_cache)
           {
             Journal.zero_delta with
             d_checked = 1;
             d_static = (if r.j_static then 1 else 0);
             d_slots = r.n_slots;
             d_steps = r.job_steps;
             d_encode_us = Journal.us_of_s r.j_encode_t;
             d_solve_us = Journal.us_of_s r.j_solve_t;
           })
  in
  let c = Pool.run ~jobs:limits.jobs ~on_result ~produce ~work ~is_stop () in
  Array.iter pf_flush phs;
  (* Restrict to the jobs a sequential run would have executed: indices
     up to (and including) the first stop. *)
  let cut = match c.Pool.first_stop with Some i -> i | None -> max_int in
  let counted = List.filter (fun (i, _, _) -> i <= cut) c.Pool.results in
  let schemas_checked =
    match c.Pool.first_stop with
    | Some i -> i + 1
    | None -> max 0 (!emitted - resume_from)
  in
  let slots_total = List.fold_left (fun acc (_, _, r) -> acc + r.n_slots) 0 counted in
  let solver_steps = List.fold_left (fun acc (_, _, r) -> acc + r.job_steps) 0 counted in
  let static_prunes =
    List.fold_left (fun acc (_, _, r) -> acc + if r.j_static then 1 else 0) 0 counted
  in
  let encode_time = List.fold_left (fun acc (_, _, r) -> acc +. r.j_encode_t) 0.0 counted in
  let solve_time = List.fold_left (fun acc (_, _, r) -> acc +. r.j_solve_t) 0.0 counted in
  let workers =
    List.init limits.jobs (fun wid ->
        (* Utilisation is reported over everything a worker actually ran,
           including work an earlier stop later made irrelevant. *)
        let mine =
          List.filter_map
            (fun (_, w, r) -> if w = wid then Some r else None)
            c.Pool.results
        in
        {
          worker_id = wid;
          schemas = List.length mine;
          slots = List.fold_left (fun acc r -> acc + r.n_slots) 0 mine;
          solver_steps = List.fold_left (fun acc r -> acc + r.job_steps) 0 mine;
          busy_time = c.Pool.busy.(wid);
        })
  in
  (* Positions the pool quarantined (the job raised twice): record them
     as permanent frontier holes so a resumed run re-attempts them. *)
  List.iter
    (fun (i, msg) -> Journal.Tracker.quarantine run.r_tracker (resume_from + i) msg)
    c.Pool.quarantined;
  let quarantined = (Journal.Tracker.snapshot run.r_tracker).Journal.quarantined in
  let last_completed () =
    List.fold_left
      (fun acc (i, w, _) ->
        match acc with Some (j, _) when j >= i -> acc | _ -> Some (i, w))
      None c.Pool.results
  in
  let decided_at = ref None in
  let outcome =
    match c.Pool.first_stop with
    | Some i -> (
      decided_at := Some (resume_from + i);
      match List.find (fun (j, _, _) -> j = i) counted with
      | _, _, { verdict = J_sat w; _ } -> Violated w
      | _, _, { verdict = J_unknown; _ } -> Aborted unknown_message
      | _, _, { verdict = J_timeout; _ } -> Aborted timeout_message
      | _, _, { verdict = J_unsat; _ } -> assert false)
    | None -> (
      match (!aborted, c.Pool.completed) with
      | Some reason, _ -> Aborted reason
      | None, true -> Holds
      | None, false ->
        let position, worker =
          match last_completed () with
          | Some (i, w) -> (resume_from + i, Some w)
          | None -> (resume_from - 1, None)
        in
        Aborted (stopped_unexpectedly ~position ~worker))
  in
  let stats =
    stats_plus_base run.r_base
      {
        schemas_checked;
        schemas_skipped = 0;
        subtrees_pruned = 0;
        core_prunes = 0;
        static_prunes;
        prefix_hits = 0;
        slots_total;
        solver_steps;
        encode_time;
        solve_time;
        time = Unix.gettimeofday () -. t0;
        jobs = limits.jobs;
        workers;
        cache =
          List.fold_left
            (fun acc (_, _, r) -> Smt.Portfolio.add_counters acc r.j_cache)
            Smt.Portfolio.zero_counters counted;
      }
  in
  { spec; outcome = partialize ~quarantined ~decided_at:!decided_at outcome; stats }

(* ------------------------------------------------------------------- *)
(* Incremental engine: walk the enumeration tree once, sharing the
   encoding and the solver state of every common prefix through
   {!Encode.session} and {!Smt.Lia.session}.  At each edge the event's
   atom delta is pushed and the prefix's reachability is (re)checked by
   {!Smt.Lia.check_quick} — interval propagation and the model cache
   only, never the simplex, so the check costs zero counted solver
   steps; an unsatisfiable prefix prunes the whole subtree, which is
   sound because [Encode.finalize] only ever appends to the prefix's
   atoms (see DESIGN.md).  Schemas that survive to their emission point
   are
   discharged with the same flat [solve_schema] on the same finalized
   query as the flat engine, so verdicts, witnesses and the deciding
   schema's enumeration index are bit-identical; pruned subtrees are
   counted in closed form (see [count_subtree]) so budgets trip at the
   same position and the skipped schemas' slot totals still add up. *)

(* Closed-form subtree totals (schema counts and slot sums), memoised
   per run and per domain: the tables are not domain-safe, and are
   dropped with the run. *)
type totals = { tree : Schema.tree; slot_memo : Encode.Sim.memo }

let new_totals u spec =
  let tree = Schema.tree u spec in
  { tree; slot_memo = Encode.Sim.memo tree }

(* Mutable per-run (sequential) or per-job (parallel) tally.  [position]
   is the global enumeration index — checked and skipped schemas both
   advance it, which is what keeps [max_schemas] aborts aligned with the
   flat engines. *)
type inc_tally = {
  mutable position : int;
  start : int;
  resume_from : int;
      (* positions below this were discharged by a previous slice: fast-
         forwarded without solving, with no statistics accrual (the base
         journal already carries their totals) *)
  mutable checked : int;
  mutable skipped : int;
  mutable pruned : int;
  mutable core_pruned : int;
      (* subset of [pruned]: sibling subtrees refuted by an unsat core
         confined to shallower frames, skipped without any reach-check *)
  mutable static : int;
      (* subset of [pruned]: subtrees refuted by the invariant engine's
         certificates, skipped without touching the sessions at all *)
  mutable slots : int;
  steps : int ref;
  hits : int ref;
  mutable encode_t : float;
  mutable solve_t : float;
  mutable pending : Journal.delta;
      (* statistics accrued since the last consumed position (prefix
         reach-checks, prunes); attached to the next position's journal
         note so per-position attribution is exact across slices *)
  mutable found : Witness.t option;
  mutable decided_at : int option;
  mutable abort_msg : string option;
  portfolio : Smt.Portfolio.handle option;
      (* leaf discharge cache handle; [None] reproduces the uncached
         engine exactly *)
  totals : totals;
}

let new_tally ?portfolio ~totals ~start ~resume_from () =
  {
    position = start;
    start;
    resume_from;
    checked = 0;
    skipped = 0;
    pruned = 0;
    core_pruned = 0;
    static = 0;
    slots = 0;
    steps = ref 0;
    hits = ref 0;
    encode_t = 0.0;
    solve_t = 0.0;
    pending = Journal.zero_delta;
    found = None;
    decided_at = None;
    abort_msg = None;
    portfolio;
    totals;
  }

(* Whether the current position's statistics belong to this slice. *)
let accruing c = c.position >= c.resume_from

(* Fold [delta] (plus anything pending) into the journal as the note
   for the position just consumed. *)
let note_position ~run c delta =
  let d = Journal.add_delta c.pending delta in
  c.pending <- Journal.zero_delta;
  Journal.Tracker.note run.r_tracker ~start:(c.position - 1) ~span:1 d

let check_budget ~run c =
  if c.position >= run.r_limits.max_schemas then
    Some (budget_messages ~max_schemas_hit:true ~schemas:c.position ~budget:0.0)
  else deadline_message run ~position:c.position

(* Account the [n] positions from [c.position] on as skipped, with slot
   total [slots ()], in one journal note after one deadline check.
   Answers [false], leaving [c] untouched, when the span straddles the
   resume frontier or reaches the schema budget; a span wholly below
   the frontier is fast-forwarded. *)
let skip_span ~run c ~n ~slots =
  let p = c.position in
  if n = 0 || n <= c.resume_from - p then begin
    c.position <- p + n;
    true
  end
  else if p < c.resume_from || n > run.r_limits.max_schemas - p then false
  else begin
    (match deadline_message run ~position:p with
    | Some msg -> c.abort_msg <- Some msg
    | None ->
      let slots = slots () in
      c.position <- p + n;
      c.skipped <- c.skipped + n;
      c.slots <- c.slots + slots;
      let d =
        Journal.add_delta c.pending
          { Journal.zero_delta with d_skipped = n; d_slots = slots }
      in
      c.pending <- Journal.zero_delta;
      Journal.Tracker.note run.r_tracker ~start:p ~span:n d);
    true
  end

(* Account a pruned subtree without solving: advance the enumeration
   position past its schemas and accumulate the slots each would have
   had, in closed form from the memoised totals.  A subtree straddling
   the resume frontier or the schema budget is split: its own schema,
   then each child in preorder, descending only into the children that
   straddle, so budget aborts land exactly where the flat engine's
   would. *)
let rec count_subtree ~run sim c ~ctx ~obs_mask =
  let t = c.totals in
  let n = Schema.size t.tree ~ctx ~obs_mask in
  if
    not
      (skip_span ~run c ~n ~slots:(fun () ->
           Encode.Sim.subtree_slots t.slot_memo sim ~obs_mask))
  then begin
    (* A single position straddles only when it lies at or past the
       schema budget. *)
    if
      Schema.is_schema t.tree ~obs_mask
      && not (skip_span ~run c ~n:1 ~slots:(fun () -> Encode.Sim.leaf_slots sim))
    then
      c.abort_msg <-
        Some (budget_messages ~max_schemas_hit:true ~schemas:c.position ~budget:0.0);
    List.iter
      (fun (ev, ctx, obs_mask) ->
        if c.abort_msg = None then
          count_subtree ~run (Encode.Sim.push_event sim ev) c ~ctx ~obs_mask)
      (Schema.children t.tree ~ctx ~obs_mask)
  end

(* The incremental DFS over the subtree rooted at the sessions' current
   prefix (whose reachability the caller has already established). *)
let run_inc_subtree ~run u spec es lia c ~prefix_rev ~ctx0 ~obs0 =
  let limits = run.r_limits in
  let solver_stop = make_stop run in
  let rev_events = ref prefix_rev in
  let ctx_stack = ref [ ctx0 ] in
  let obs_stack = ref [ obs0 ] in
  let stop = ref false in
  (* [Some f]: the last reach-check's unsat core was confined to frames
     [<= f] of the assertion stack, so the conjunction was already
     infeasible at depth [f] and every node entered while the stack is
     at depth [>= f] roots a refuted subtree.  While set, siblings are
     skipped without even a reach-check (strictly stronger than the
     prefix-UNSAT cut, which must still push and check each sibling);
     cleared once the walk pops below frame [f]. *)
  let prune_until = ref None in
  ignore
    (Schema.walk u spec ~ctx:ctx0 ~obs_mask:obs0
       ~on_enter:(fun ev ->
         if !stop then `Prune
         else
           (* The prefix traversal between schemas also respects the
              deadline (and interrupt requests): a deep descent can no
              longer overshoot the time budget unchecked. *)
           match deadline_message run ~position:c.position with
           | Some msg when accruing c ->
             c.abort_msg <- Some msg;
             stop := true;
             `Prune
           | _ when !prune_until <> None -> begin
             (* Core-guided sibling prune: the active core already
                refutes every subtree at this depth, so the sessions are
                not touched at all — no push, no reach-check, no prefix
                hit.  Only the slot simulation runs, to account the
                skipped schemas exactly as the flat engine would. *)
             let ctx = List.hd !ctx_stack and obs = List.hd !obs_stack in
             let ctx', obs' =
               match ev with
               | Schema.Unlock g -> (ctx lor (1 lsl g), obs)
               | Schema.Observe i -> (ctx, obs lor (1 lsl i))
             in
             if accruing c then begin
               c.pruned <- c.pruned + 1;
               c.core_pruned <- c.core_pruned + 1;
               c.pending <-
                 Journal.add_delta c.pending
                   { Journal.zero_delta with d_pruned = 1; d_core_pruned = 1 }
             end;
             let sim = Encode.Sim.push_event (Encode.Sim.of_session es) ev in
             (* The parent prefix (which the core refutes) bounds every
                schema of the skipped subtree; certify it, not the
                never-asserted sibling extension. *)
             let atoms =
               if run.r_certs = None then [] else Encode.prefix_atoms es
             in
             let p0 = c.position in
             count_subtree ~run sim c ~ctx:ctx' ~obs_mask:obs';
             (match run.r_certs with
             | Some sink when c.position > p0 ->
               Certs.emit_prefix sink ~position:p0 ~span:(c.position - p0) atoms
             | _ -> ());
             if c.abort_msg <> None then stop := true;
             `Prune
           end
           | _ when static_refutation_event run ev <> None -> begin
             (* Static prune: the invariant engine's certificate refutes
                every schema unlocking this guard, so the subtree is
                skipped without touching the sessions — no push, no
                reach-check.  The certificate was validated when built,
                and [--emit-certs] replays it through the standalone
                checker like any other prune. *)
             let refutation = Option.get (static_refutation_event run ev) in
             let ctx = List.hd !ctx_stack and obs = List.hd !obs_stack in
             let ctx', obs' =
               match ev with
               | Schema.Unlock g -> (ctx lor (1 lsl g), obs)
               | Schema.Observe i -> (ctx, obs lor (1 lsl i))
             in
             if accruing c then begin
               c.pruned <- c.pruned + 1;
               c.static <- c.static + 1;
               c.pending <-
                 Journal.add_delta c.pending
                   { Journal.zero_delta with d_pruned = 1; d_static = 1 }
             end;
             let sim = Encode.Sim.push_event (Encode.Sim.of_session es) ev in
             let p0 = c.position in
             count_subtree ~run sim c ~ctx:ctx' ~obs_mask:obs';
             (match run.r_certs with
             | Some sink when c.position > p0 ->
               Certs.emit_static sink ~position:p0 ~span:(c.position - p0)
                 refutation.Analysis.Invariants.atoms
                 refutation.Analysis.Invariants.cert
             | _ -> ());
             if c.abort_msg <> None then stop := true;
             `Prune
           end
           | _ -> begin
             let ctx = List.hd !ctx_stack and obs = List.hd !obs_stack in
             let ctx', obs' =
               match ev with
               | Schema.Unlock g -> (ctx lor (1 lsl g), obs)
               | Schema.Observe i -> (ctx, obs lor (1 lsl i))
             in
             let t1 = Unix.gettimeofday () in
             let delta = Encode.push_event es ev in
             let t2 = Unix.gettimeofday () in
             Smt.Lia.push lia;
             Smt.Lia.assert_atoms lia delta;
             (* Reachability is decided by [check_quick] only: the
                interval store and the model cache, never the simplex.
                Pruning therefore costs zero counted solver steps, which
                is what makes the incremental engine's step total at most
                the flat engine's on every property (the leaves it does
                check are the identical flat queries). *)
             let h0 = !(c.hits) in
             let reach = Smt.Lia.check_quick ~hits:c.hits lia in
             let t3 = Unix.gettimeofday () in
             (* Statistics of replayed positions live in the base
                journal: accrue only past the resume point, with the
                increments attributed (via [pending]) to the position
                the uninterrupted run charges them to. *)
             if accruing c then begin
               c.encode_t <- c.encode_t +. (t2 -. t1);
               c.solve_t <- c.solve_t +. (t3 -. t2);
               c.pending <-
                 Journal.add_delta c.pending
                   {
                     Journal.zero_delta with
                     d_hits = !(c.hits) - h0;
                     d_encode_us = Journal.us_of_s (t2 -. t1);
                     d_solve_us = Journal.us_of_s (t3 -. t2);
                   }
             end
             else c.hits := h0;
             match reach with
             | Smt.Lia.Unsat ->
               if accruing c then begin
                 c.pruned <- c.pruned + 1;
                 c.pending <-
                   Journal.add_delta c.pending
                     { Journal.zero_delta with d_pruned = 1 }
               end;
               (* When the unsat core never touches the frame just
                  pushed, the conflict lives in a shallower prefix: arm
                  the sibling prune so the remaining subtrees at every
                  depth above the core's are skipped outright. *)
               (match Smt.Lia.unsat_depth lia with
               | Some f when f < Smt.Lia.depth lia -> prune_until := Some f
               | _ -> ());
               let sim = Encode.Sim.of_session es in
               let atoms =
                 if run.r_certs = None then [] else Encode.prefix_atoms es
               in
               Smt.Lia.pop lia;
               Encode.pop_event es;
               let p0 = c.position in
               count_subtree ~run sim c ~ctx:ctx' ~obs_mask:obs';
               (match run.r_certs with
               | Some sink when c.position > p0 ->
                 Certs.emit_prefix sink ~position:p0 ~span:(c.position - p0) atoms
               | _ -> ());
               if c.abort_msg <> None then stop := true;
               `Prune
             | Smt.Lia.Sat _ | Smt.Lia.Unknown | Smt.Lia.Timeout ->
               (* Unknown: cannot prune; descend and let the leaves decide. *)
               ctx_stack := ctx' :: !ctx_stack;
               obs_stack := obs' :: !obs_stack;
               rev_events := ev :: !rev_events;
               `Descend
           end)
       ~on_leave:(fun _ ->
         ctx_stack := List.tl !ctx_stack;
         obs_stack := List.tl !obs_stack;
         rev_events := List.tl !rev_events;
         Smt.Lia.pop lia;
         Encode.pop_event es;
         (* Below the core's frame the refutation no longer applies:
            the node's siblings must be reach-checked normally again. *)
         match !prune_until with
         | Some f when Smt.Lia.depth lia < f -> prune_until := None
         | _ -> ())
       ~on_schema:(fun () ->
         if !stop then false
         else if not (accruing c) then begin
           (* Discharged UNSAT by a previous slice: fast-forward past
              the leaf without finalizing or solving. *)
           c.position <- c.position + 1;
           true
         end
         else
           match check_budget ~run c with
           | Some msg ->
             c.abort_msg <- Some msg;
             stop := true;
             false
           | None -> (
             let discharge () =
               (match run.r_failpoint with Some f -> f c.position | None -> ());
               let steps0 = !(c.steps) in
               let pc0 = pf_counters c.portfolio in
               let t1 = Unix.gettimeofday () in
               let encoded = Encode.finalize es in
               let t2 = Unix.gettimeofday () in
               (* Leaf queries are discharged flat, on the full finalized
                  atom list: verdicts and witness models are those of the
                  flat engine, byte for byte. *)
               let verdict =
                 solve_schema ~steps:c.steps ?portfolio:c.portfolio ~limits
                   ~stop:solver_stop encoded
               in
               let t3 = Unix.gettimeofday () in
               let dcache =
                 Smt.Portfolio.sub_counters (pf_counters c.portfolio) pc0
               in
               (encoded, verdict, t2 -. t1, t3 -. t2, !(c.steps) - steps0, dcache)
             in
             let handle (encoded, verdict, et, st, dsteps, dcache) =
               c.position <- c.position + 1;
               c.checked <- c.checked + 1;
               c.encode_t <- c.encode_t +. et;
               c.solve_t <- c.solve_t +. st;
               c.slots <- c.slots + encoded.Encode.n_slots;
               match verdict with
               | `Unsat ->
                 (match run.r_certs with
                 | Some sink ->
                   Certs.emit_schema sink ~position:(c.position - 1) encoded
                 | None -> ());
                 note_position ~run c
                   (Journal.add_delta (cache_delta dcache)
                      {
                        Journal.zero_delta with
                        d_checked = 1;
                        d_slots = encoded.Encode.n_slots;
                        d_steps = dsteps;
                        d_encode_us = Journal.us_of_s et;
                        d_solve_us = Journal.us_of_s st;
                      });
                 true
               | `Sat model ->
                 c.found <-
                   Some (Witness.of_model u spec (List.rev !rev_events) encoded model);
                 c.decided_at <- Some (c.position - 1);
                 stop := true;
                 false
               | `Unknown ->
                 c.abort_msg <- Some unknown_message;
                 c.decided_at <- Some (c.position - 1);
                 stop := true;
                 false
               | `Timeout ->
                 c.abort_msg <- Some timeout_message;
                 c.decided_at <- Some (c.position - 1);
                 stop := true;
                 false
             in
             match discharge () with
             | r -> handle r
             | exception e -> (
               (* Fail soft: one retry, then quarantine and continue. *)
               match discharge () with
               | r -> handle r
               | exception e2 ->
                 let m1 = Printexc.to_string e and m2 = Printexc.to_string e2 in
                 let msg =
                   if String.equal m1 m2 then m2
                   else Printf.sprintf "%s (first attempt: %s)" m2 m1
                 in
                 Journal.Tracker.quarantine run.r_tracker c.position msg;
                 c.position <- c.position + 1;
                 true)))
       ())

(* Open both sessions at [prefix] and reach-check it once; on UNSAT the
   caller's whole subtree is accounted in counting mode, otherwise the
   incremental DFS runs below it. *)
let run_inc_job ~run u spec c ~prefix ~ctx ~obs_mask =
  match static_refutation run prefix with
  | Some refutation ->
    (* The root refutation (or a statically-false guard already unlocked
       in the job's prefix) covers the whole subtree: skip it without
       opening the encoder or solver sessions at all. *)
    if accruing c then begin
      c.pruned <- c.pruned + 1;
      c.static <- c.static + 1;
      c.pending <-
        Journal.add_delta c.pending
          { Journal.zero_delta with d_pruned = 1; d_static = 1 }
    end;
    let sim = List.fold_left Encode.Sim.push_event (Encode.Sim.start u spec) prefix in
    let p0 = c.position in
    count_subtree ~run sim c ~ctx ~obs_mask;
    (match run.r_certs with
    | Some sink when c.position > p0 ->
      Certs.emit_static sink ~position:p0 ~span:(c.position - p0)
        refutation.Analysis.Invariants.atoms refutation.Analysis.Invariants.cert
    | _ -> ())
  | None ->
  let t1 = Unix.gettimeofday () in
  let es = Encode.start u spec in
  let lia = Smt.Lia.create () in
  Smt.Lia.assert_atoms lia (Encode.base_atoms es);
  List.iter
    (fun ev ->
      let delta = Encode.push_event es ev in
      Smt.Lia.push lia;
      Smt.Lia.assert_atoms lia delta)
    prefix;
  let t2 = Unix.gettimeofday () in
  let h0 = !(c.hits) in
  let reach = Smt.Lia.check_quick ~hits:c.hits lia in
  let t3 = Unix.gettimeofday () in
  if accruing c then begin
    c.encode_t <- c.encode_t +. (t2 -. t1);
    c.solve_t <- c.solve_t +. (t3 -. t2);
    c.pending <-
      Journal.add_delta c.pending
        {
          Journal.zero_delta with
          d_hits = !(c.hits) - h0;
          d_encode_us = Journal.us_of_s (t2 -. t1);
          d_solve_us = Journal.us_of_s (t3 -. t2);
        }
  end
  else c.hits := h0;
  match reach with
  | Smt.Lia.Unsat ->
    if accruing c then begin
      c.pruned <- c.pruned + 1;
      c.pending <-
        Journal.add_delta c.pending { Journal.zero_delta with d_pruned = 1 }
    end;
    let atoms = if run.r_certs = None then [] else Encode.prefix_atoms es in
    let p0 = c.position in
    count_subtree ~run (Encode.Sim.of_session es) c ~ctx ~obs_mask;
    (match run.r_certs with
    | Some sink when c.position > p0 ->
      Certs.emit_prefix sink ~position:p0 ~span:(c.position - p0) atoms
    | _ -> ())
  | Smt.Lia.Sat _ | Smt.Lia.Unknown | Smt.Lia.Timeout ->
    run_inc_subtree ~run u spec es lia c ~prefix_rev:(List.rev prefix) ~ctx0:ctx
      ~obs0:obs_mask

let inc_outcome c ~complete ~worker =
  match (c.found, c.abort_msg) with
  | Some w, _ -> Violated w
  | None, Some reason -> Aborted reason
  | None, None ->
    if complete then Holds
    else Aborted (stopped_unexpectedly ~position:(c.position - 1) ~worker)

let verify_incremental_sequential ~run u (spec : Ta.Spec.t) =
  let t0 = Unix.gettimeofday () in
  let c =
    new_tally ?portfolio:(pf_handle run) ~totals:(new_totals u spec) ~start:0
      ~resume_from:run.r_resume_from ()
  in
  run_inc_job ~run u spec c ~prefix:[] ~ctx:0 ~obs_mask:0;
  let time = Unix.gettimeofday () -. t0 in
  pf_flush c.portfolio;
  let consumed = max 0 (c.position - run.r_resume_from) in
  let stats =
    stats_plus_base run.r_base
      {
        schemas_checked = consumed;
        schemas_skipped = c.skipped;
        subtrees_pruned = c.pruned;
        core_prunes = c.core_pruned;
        static_prunes = c.static;
        prefix_hits = !(c.hits);
        slots_total = c.slots;
        solver_steps = !(c.steps);
        encode_time = c.encode_t;
        solve_time = c.solve_t;
        time;
        jobs = 1;
        workers =
          [
            {
              worker_id = 0;
              schemas = consumed;
              slots = c.slots;
              solver_steps = !(c.steps);
              busy_time = c.encode_t +. c.solve_t;
            };
          ];
        cache = pf_counters c.portfolio;
      }
  in
  let quarantined = (Journal.Tracker.snapshot run.r_tracker).Journal.quarantined in
  let outcome =
    partialize ~quarantined ~decided_at:c.decided_at
      (inc_outcome c ~complete:true ~worker:None)
  in
  { spec; outcome; stats }

(* ------------------------------------------------------------------- *)
(* Parallel incremental engine: the enumeration tree is partitioned at a
   fixed depth — every node above the cut whose observation set is
   complete becomes a single-schema job, every subtree rooted at the cut
   becomes one incremental job — and jobs carry their subtree's starting
   enumeration position, so positions are globally consistent.  Jobs are
   contiguous blocks of the preorder, pushed in order, and each worker
   stops at the first deciding schema inside its block, so the pool's
   first-stop contract again yields the sequential outcome, witness and
   schema count.  Reachability pruning is a deterministic function of
   the prefix (interval propagation over the same assert sequence), so
   the set of schemas actually solved — and the solver-step total —
   matches the sequential incremental engine; only the granularity
   counters (subtrees pruned, prefix hits) differ, because one pruned
   subtree in the sequential engine may surface as several pruned jobs
   here. *)

let partition_depth = 2

type inc_job = {
  ij_prefix : Schema.event list;
  ij_ctx : int;
  ij_obs : int;
  ij_start : int;
  ij_subtree : bool;  (** false: the single schema at [ij_prefix] *)
}

type inc_job_result = {
  ir_schemas : int;  (** enumeration positions consumed (checked + skipped) *)
  ir_checked : int;
  ir_skipped : int;
  ir_pruned : int;
  ir_core_pruned : int;
  ir_static : int;
  ir_hits : int;
  ir_slots : int;
  ir_steps : int;
  ir_encode_t : float;
  ir_solve_t : float;
  ir_cache : Smt.Portfolio.counters;  (** this job's cache/portfolio activity *)
  ir_decided_at : int option;  (** absolute position of the deciding schema *)
  ir_verdict :
    [ `Unsat_all | `Sat of Witness.t | `Unknown | `Timeout | `Budget of string ];
}

let verify_incremental_parallel ~run u (spec : Ta.Spec.t) =
  let limits = run.r_limits in
  let t0 = Unix.gettimeofday () in
  let phs = Array.init limits.jobs (fun _ -> pf_handle run) in
  (* One set of subtree totals per worker domain, one for the producer. *)
  let worker_totals = Array.init limits.jobs (fun _ -> new_totals u spec) in
  let resume_from = run.r_resume_from in
  (* Preorder start position of each pushed job, in push (= pool index)
     order; only read after the pool joins. *)
  let rev_starts = ref [] in
  let produce ~push =
    let tree = Schema.tree u spec in
    let pos = ref 0 in
    let depth = ref 0 in
    let rev_prefix = ref [] in
    let ctx_stack = ref [ 0 ] in
    let obs_stack = ref [ 0 ] in
    let stop = ref false in
    let push_recorded job =
      let accepted = push job in
      if accepted then rev_starts := job.ij_start :: !rev_starts;
      accepted
    in
    Schema.walk u spec
      ~on_enter:(fun ev ->
        if !stop then `Prune
        else begin
          let ctx = List.hd !ctx_stack and obs = List.hd !obs_stack in
          let ctx', obs' =
            match ev with
            | Schema.Unlock g -> (ctx lor (1 lsl g), obs)
            | Schema.Observe i -> (ctx, obs lor (1 lsl i))
          in
          if !depth + 1 >= partition_depth then begin
            let n = Schema.size tree ~ctx:ctx' ~obs_mask:obs' in
            (if n > 0 then
               if n <= resume_from - !pos then
                 (* Every schema in this subtree was already discharged
                    by a previous slice. *)
                 pos := !pos + n
               else
                 let job =
                   {
                     ij_prefix = List.rev (ev :: !rev_prefix);
                     ij_ctx = ctx';
                     ij_obs = obs';
                     ij_start = !pos;
                     ij_subtree = true;
                   }
                 in
                 (* Once a pushed job covers position [max_schemas], the
                    deterministic budget abort is in flight: stop
                    producing. *)
                 if push_recorded job && n <= limits.max_schemas - !pos then
                   pos := !pos + n
                 else stop := true);
            `Prune
          end
          else begin
            incr depth;
            ctx_stack := ctx' :: !ctx_stack;
            obs_stack := obs' :: !obs_stack;
            rev_prefix := ev :: !rev_prefix;
            `Descend
          end
        end)
      ~on_leave:(fun _ ->
        decr depth;
        ctx_stack := List.tl !ctx_stack;
        obs_stack := List.tl !obs_stack;
        rev_prefix := List.tl !rev_prefix)
      ~on_schema:(fun () ->
        if !stop then false
        else if !pos < resume_from then begin
          incr pos;
          true
        end
        else begin
          let job =
            {
              ij_prefix = List.rev !rev_prefix;
              ij_ctx = List.hd !ctx_stack;
              ij_obs = List.hd !obs_stack;
              ij_start = !pos;
              ij_subtree = false;
            }
          in
          if push_recorded job && !pos < limits.max_schemas then begin
            incr pos;
            true
          end
          else begin
            stop := true;
            false
          end
        end)
      ()
  in
  let solver_stop = make_stop run in
  let work ~worker _index job =
    let ph = phs.(worker) in
    let pc0 = pf_counters ph in
    let c =
      new_tally ?portfolio:ph ~totals:worker_totals.(worker) ~start:job.ij_start
        ~resume_from ()
    in
    (match check_budget ~run c with
     | Some msg -> c.abort_msg <- Some msg
     | None ->
       if job.ij_subtree then
         run_inc_job ~run u spec c ~prefix:job.ij_prefix ~ctx:job.ij_ctx
           ~obs_mask:job.ij_obs
       else begin
         (* A lone schema above the partition cut.  Its prefix gets the
            same zero-step reachability check the sequential engine
            applies on the way down, so the set of schemas actually
            solved — and with it the solver-step total — is the same in
            both incremental engines. *)
         (match run.r_failpoint with Some f -> f c.position | None -> ());
         c.position <- c.position + 1;
         match static_refutation run job.ij_prefix with
         | Some _ ->
           (* Statically refuted: the sequential engine skips this
              position inside a statically pruned subtree. *)
           let t1 = Unix.gettimeofday () in
           let sim =
             List.fold_left Encode.Sim.push_event (Encode.Sim.start u spec)
               job.ij_prefix
           in
           c.skipped <- 1;
           c.static <- 1;
           c.slots <- Encode.Sim.leaf_slots sim;
           c.encode_t <- Unix.gettimeofday () -. t1;
           Journal.Tracker.note run.r_tracker ~start:(c.position - 1) ~span:1
             {
               Journal.zero_delta with
               d_skipped = 1;
               d_static = 1;
               d_slots = c.slots;
               d_encode_us = Journal.us_of_s c.encode_t;
             }
         | None ->
         let t1 = Unix.gettimeofday () in
         let es = Encode.start u spec in
         let lia = Smt.Lia.create () in
         Smt.Lia.assert_atoms lia (Encode.base_atoms es);
         List.iter
           (fun ev ->
             let delta = Encode.push_event es ev in
             Smt.Lia.push lia;
             Smt.Lia.assert_atoms lia delta)
           job.ij_prefix;
         let t2 = Unix.gettimeofday () in
         c.encode_t <- t2 -. t1;
         match Smt.Lia.check_quick ~hits:c.hits lia with
         | Smt.Lia.Unsat ->
           c.skipped <- 1;
           c.slots <- Encode.Sim.leaf_slots (Encode.Sim.of_session es);
           c.solve_t <- Unix.gettimeofday () -. t2;
           Journal.Tracker.note run.r_tracker ~start:(c.position - 1) ~span:1
             {
               Journal.zero_delta with
               d_skipped = 1;
               d_slots = c.slots;
               d_encode_us = Journal.us_of_s c.encode_t;
               d_solve_us = Journal.us_of_s c.solve_t;
             }
         | Smt.Lia.Sat _ | Smt.Lia.Unknown | Smt.Lia.Timeout -> (
           c.checked <- 1;
           let encoded = Encode.finalize es in
           let t3 = Unix.gettimeofday () in
           c.encode_t <- c.encode_t +. (t3 -. t2);
           c.slots <- encoded.n_slots;
           (match
              solve_schema ~steps:c.steps ?portfolio:c.portfolio ~limits
                ~stop:solver_stop encoded
            with
            | `Unsat ->
              (* A lone-schema job runs exactly one leaf query, so the
                 handle's counter motion since job start is this
                 position's cache activity. *)
              Journal.Tracker.note run.r_tracker ~start:(c.position - 1) ~span:1
                (Journal.add_delta
                   (cache_delta
                      (Smt.Portfolio.sub_counters (pf_counters c.portfolio) pc0))
                   {
                     Journal.zero_delta with
                     d_checked = 1;
                     d_slots = c.slots;
                     d_steps = !(c.steps);
                     d_encode_us = Journal.us_of_s c.encode_t;
                     d_solve_us = Journal.us_of_s c.solve_t;
                   })
            | `Sat model ->
              c.found <- Some (Witness.of_model u spec job.ij_prefix encoded model);
              c.decided_at <- Some (c.position - 1)
            | `Unknown ->
              c.abort_msg <- Some unknown_message;
              c.decided_at <- Some (c.position - 1)
            | `Timeout ->
              c.abort_msg <- Some timeout_message;
              c.decided_at <- Some (c.position - 1));
           c.solve_t <- Unix.gettimeofday () -. t3)
       end);
    {
      ir_schemas = max 0 (c.position - max c.start c.resume_from);
      ir_checked = c.checked;
      ir_skipped = c.skipped;
      ir_pruned = c.pruned;
      ir_core_pruned = c.core_pruned;
      ir_static = c.static;
      ir_hits = !(c.hits);
      ir_slots = c.slots;
      ir_steps = !(c.steps);
      ir_encode_t = c.encode_t;
      ir_solve_t = c.solve_t;
      ir_cache = Smt.Portfolio.sub_counters (pf_counters ph) pc0;
      ir_decided_at = c.decided_at;
      ir_verdict =
        (match (c.found, c.abort_msg) with
         | Some w, _ -> `Sat w
         | None, Some msg ->
           if msg = unknown_message then `Unknown
           else if msg = timeout_message then `Timeout
           else `Budget msg
         | None, None -> `Unsat_all);
    }
  in
  let is_stop r = r.ir_verdict <> `Unsat_all in
  let completion = Pool.run ~jobs:limits.jobs ~produce ~work ~is_stop () in
  Array.iter pf_flush phs;
  let cut = match completion.Pool.first_stop with Some i -> i | None -> max_int in
  let counted = List.filter (fun (i, _, _) -> i <= cut) completion.Pool.results in
  let sum f = List.fold_left (fun acc (_, _, r) -> acc + f r) 0 counted in
  let sumf f = List.fold_left (fun acc (_, _, r) -> acc +. f r) 0.0 counted in
  let workers =
    List.init limits.jobs (fun wid ->
        let mine =
          List.filter_map
            (fun (_, w, r) -> if w = wid then Some r else None)
            completion.Pool.results
        in
        {
          worker_id = wid;
          schemas = List.fold_left (fun acc r -> acc + r.ir_schemas) 0 mine;
          slots = List.fold_left (fun acc r -> acc + r.ir_slots) 0 mine;
          solver_steps = List.fold_left (fun acc r -> acc + r.ir_steps) 0 mine;
          busy_time = completion.Pool.busy.(wid);
        })
  in
  (* Jobs the pool quarantined (raised twice) map back to their subtree
     start position: the frontier hole covers the whole job, so a
     resumed run re-attempts it from its first schema. *)
  let starts = Array.of_list (List.rev !rev_starts) in
  List.iter
    (fun (i, msg) -> Journal.Tracker.quarantine run.r_tracker starts.(i) msg)
    completion.Pool.quarantined;
  (* Crashes inside a subtree job are retried/quarantined inline by
     run_inc_subtree (they never reach the pool), so the complete hole
     set — inline and pool-level — lives in the tracker. *)
  let quarantined = (Journal.Tracker.snapshot run.r_tracker).Journal.quarantined in
  let decided_at = ref None in
  let outcome =
    match completion.Pool.first_stop with
    | Some i -> (
      match List.find (fun (j, _, _) -> j = i) counted with
      | _, _, ({ ir_verdict = `Sat w; _ } as r) ->
        decided_at := r.ir_decided_at;
        Violated w
      | _, _, ({ ir_verdict = `Unknown; _ } as r) ->
        decided_at := r.ir_decided_at;
        Aborted unknown_message
      | _, _, ({ ir_verdict = `Timeout; _ } as r) ->
        decided_at := r.ir_decided_at;
        Aborted timeout_message
      | _, _, { ir_verdict = `Budget msg; _ } -> Aborted msg
      | _, _, { ir_verdict = `Unsat_all; _ } -> assert false)
    | None ->
      if completion.Pool.completed then Holds
      else
        let position, worker =
          List.fold_left
            (fun (p, w) (i, wid, r) ->
              let last = starts.(i) + r.ir_schemas - 1 in
              if last > p then (last, Some wid) else (p, w))
            (run.r_resume_from - 1, None)
            completion.Pool.results
        in
        Aborted (stopped_unexpectedly ~position ~worker)
  in
  let stats =
    stats_plus_base run.r_base
      {
        schemas_checked = sum (fun r -> r.ir_schemas);
        schemas_skipped = sum (fun r -> r.ir_skipped);
        subtrees_pruned = sum (fun r -> r.ir_pruned);
        core_prunes = sum (fun r -> r.ir_core_pruned);
        static_prunes = sum (fun r -> r.ir_static);
        prefix_hits = sum (fun r -> r.ir_hits);
        slots_total = sum (fun r -> r.ir_slots);
        solver_steps = sum (fun r -> r.ir_steps);
        encode_time = sumf (fun r -> r.ir_encode_t);
        solve_time = sumf (fun r -> r.ir_solve_t);
        time = Unix.gettimeofday () -. t0;
        jobs = limits.jobs;
        workers;
        cache =
          List.fold_left
            (fun acc (_, _, r) -> Smt.Portfolio.add_counters acc r.ir_cache)
            Smt.Portfolio.zero_counters counted;
      }
  in
  { spec; outcome = partialize ~quarantined ~decided_at:!decided_at outcome; stats }

let verify_with_universe ?(limits = default_limits) ?checkpoint ?(checkpoint_every = 64)
    ?(resume = false) ?now ?failpoint ?certs ?portfolio u (spec : Ta.Spec.t) =
  let ta = Universe.automaton u in
  precheck ta spec;
  let fp = Journal.fingerprint ta spec in
  let base =
    match checkpoint with
    | Some path when resume && Sys.file_exists path -> (
      match Journal.load ~path with
      | Error msg -> invalid_arg ("Checker.verify: " ^ msg)
      | Ok j -> (
        match Journal.validate ~fingerprint:fp j with
        | Error msg -> invalid_arg ("Checker.verify: " ^ msg)
        (* Quarantined holes are re-attempted, not inherited: they sit at
           or past the frontier by construction. *)
        | Ok j -> { j with Journal.quarantined = [] }))
    | _ -> Journal.fresh ~fingerprint:fp
  in
  let wall0 = Unix.gettimeofday () in
  let elapsed_us () =
    base.Journal.elapsed_us + Journal.us_of_s (Unix.gettimeofday () -. wall0)
  in
  let tracker =
    Journal.Tracker.create ~base ?path:checkpoint ~every:checkpoint_every ~elapsed_us ()
  in
  let now = match now with Some f -> f | None -> Unix.gettimeofday in
  (* Build the invariant engine's certified refutations once per run.
     Every refutation was re-validated by the standalone certificate
     checker at build time, so a prune applied here rests on the same
     trust base as a replayed [--emit-certs] record. *)
  let static_info =
    if not limits.static then None
    else begin
      let inv = Analysis.Invariants.build ~spec ta in
      let ids = Universe.ids u in
      let n = List.fold_left max (-1) ids + 1 in
      let s_guard = Array.make n None in
      List.iter
        (fun g ->
          s_guard.(g) <- Analysis.Invariants.guard_refutation inv (Universe.atom u g))
        ids;
      let s_root = Analysis.Invariants.root_refutation inv in
      if s_root = None && Array.for_all Option.is_none s_guard then None
      else Some { s_root; s_guard }
    end
  in
  (* The deadline accounts for wall-clock already spent by previous
     slices, so [time_budget] bounds the run's total time, not each
     slice's. *)
  let deadline =
    Option.map
      (fun b -> now () +. b -. Journal.s_of_us base.Journal.elapsed_us)
      limits.time_budget
  in
  let run =
    {
      r_limits = limits;
      r_base = base;
      r_resume_from = base.Journal.frontier;
      r_tracker = tracker;
      r_now = now;
      r_deadline = deadline;
      r_failpoint = failpoint;
      r_certs = certs;
      r_static = static_info;
      r_portfolio = portfolio;
      r_origin = ta.A.name ^ "/" ^ spec.Ta.Spec.name;
    }
  in
  let result =
    match (limits.incremental, limits.jobs <= 1) with
    | false, true -> verify_flat_sequential ~run u spec
    | false, false -> verify_flat_parallel ~run u spec
    | true, true -> verify_incremental_sequential ~run u spec
    | true, false -> verify_incremental_parallel ~run u spec
  in
  (* Always leave the last-good journal on disk: budget aborts, signal
     interrupts and decided runs all flush their final frontier. *)
  Journal.Tracker.flush tracker;
  Option.iter Certs.flush certs;
  result

let verify ?limits ?(slice = false) ?checkpoint ?checkpoint_every ?resume ?now
    ?failpoint ?certs ?portfolio ta spec =
  let ta =
    if slice then fst (Analysis.slice ~keep:(Analysis.spec_locations spec) ta) else ta
  in
  verify_with_universe ?limits ?checkpoint ?checkpoint_every ?resume ?now ?failpoint
    ?certs ?portfolio (Universe.build ta) spec

let pp_result fmt r =
  let avg =
    if r.stats.schemas_checked = 0 then 0.0
    else float_of_int r.stats.slots_total /. float_of_int r.stats.schemas_checked
  in
  let pp_inc fmt () =
    if r.stats.subtrees_pruned > 0 || r.stats.schemas_skipped > 0 then
      Format.fprintf fmt ", %d skipped by %d pruned subtrees%t" r.stats.schemas_skipped
        r.stats.subtrees_pruned (fun fmt ->
          if r.stats.core_prunes > 0 then
            Format.fprintf fmt " (%d core-guided)" r.stats.core_prunes);
    if r.stats.static_prunes > 0 then
      Format.fprintf fmt ", %d static" r.stats.static_prunes;
    (* Cache effectiveness: only printed when a portfolio ran, so the
       default output is byte-identical to the uncached engine's. *)
    let cc = r.stats.cache in
    if cc.Smt.Portfolio.hits + cc.Smt.Portfolio.misses > 0 then begin
      Format.fprintf fmt ", cache %d/%d hits" cc.Smt.Portfolio.hits
        (cc.Smt.Portfolio.hits + cc.Smt.Portfolio.misses);
      if cc.Smt.Portfolio.cross > 0 then
        Format.fprintf fmt " (%d cross-property)" cc.Smt.Portfolio.cross;
      if cc.Smt.Portfolio.w_interval + cc.Smt.Portfolio.w_cooper > 0 then
        Format.fprintf fmt ", portfolio wins %d interval/%d cooper/%d simplex"
          cc.Smt.Portfolio.w_interval cc.Smt.Portfolio.w_cooper
          cc.Smt.Portfolio.w_simplex
    end
  in
  match r.outcome with
  | Holds ->
    Format.fprintf fmt "%-12s holds   (%d schemas, avg length %.0f%a, %.2f s)"
      r.spec.name r.stats.schemas_checked avg pp_inc () r.stats.time
  | Violated w ->
    Format.fprintf fmt "%-12s VIOLATED (%d schemas%a, %.2f s)@,%a" r.spec.name
      r.stats.schemas_checked pp_inc () r.stats.time Witness.pp w
  | Aborted reason ->
    Format.fprintf fmt "%-12s aborted: %s (%d schemas%a, %.2f s)" r.spec.name reason
      r.stats.schemas_checked pp_inc () r.stats.time
  | Partial { quarantined; reason } ->
    Format.fprintf fmt
      "%-12s PARTIAL: %s (%d quarantined position%s: %s; %d schemas%a, %.2f s)"
      r.spec.name reason (List.length quarantined)
      (if List.length quarantined = 1 then "" else "s")
      (String.concat ", "
         (List.map (fun (p, _) -> string_of_int p) quarantined))
      r.stats.schemas_checked pp_inc () r.stats.time

let pp_worker_stats fmt r =
  Format.fprintf fmt "@[<v>";
  List.iter
    (fun w ->
      Format.fprintf fmt "worker %d: %d schemas, %d slots, %d solver steps, %.2f s busy@,"
        w.worker_id w.schemas w.slots w.solver_steps w.busy_time)
    r.stats.workers;
  Format.fprintf fmt "@]"
