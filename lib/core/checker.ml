module A = Ta.Automaton

type limits = {
  max_schemas : int;
  time_budget : float option;
  lia_max_steps : int;
  jobs : int;
  static : bool;
}

let default_limits =
  {
    max_schemas = 100_000;
    time_budget = None;
    lia_max_steps = 200_000;
    jobs = 1;
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
   walks poll it at every budget check and — through the [stop]
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
  r_certs : Certs.sink option;  (* [--emit-certs]: forces [jobs = 1] *)
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
  let leaf_solve ~max_steps atoms =
    match portfolio with
    | Some h -> Smt.Portfolio.solve ?steps ~max_steps ?stop h atoms
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
(* The engine: walk the enumeration tree once, sharing the encoding and
   the solver state of every common prefix through {!Encode.session} and
   {!Smt.Lia.session}.  At each edge the event's atom delta is pushed
   and the prefix's reachability is (re)checked by
   {!Smt.Lia.check_quick} — interval propagation and the model cache
   only, never the simplex, so the check costs zero counted solver
   steps; an unsatisfiable prefix prunes the whole subtree, which is
   sound because [Encode.finalize] only ever appends to the prefix's
   atoms (see DESIGN.md).  Schemas that survive to their emission point
   are discharged by [solve_schema] on the finalized query, which is the
   query {!Encode.encode} builds for the schema on its own, so verdicts,
   witnesses and the deciding schema's enumeration index are those of a
   one-query-per-schema walk; pruned subtrees are counted in closed form
   (see [count_subtree]) so budgets trip at the same position and the
   skipped schemas' slot totals still add up. *)

(* Closed-form subtree totals (schema counts and slot sums), memoised
   per run and per domain: the tables are not domain-safe, and are
   dropped with the run. *)
type totals = { tree : Schema.tree; slot_memo : Encode.Sim.memo }

let new_totals u spec =
  let tree = Schema.tree u spec in
  { tree; slot_memo = Encode.Sim.memo tree }

(* Mutable tally of one walk over the preorder range [start, stop): the
   whole run (sequential) or one job (parallel).  [position] is the
   global enumeration index — checked and skipped schemas both advance
   it, which is what keeps [max_schemas] aborts on the exact
   position. *)
type inc_tally = {
  mutable position : int;
  start : int;
  stop : int;
      (* end of the range.  Below [max_schemas] the walk ends quietly
         there (a job's range); at [max_schemas] it ends in the budget
         abort, at the first schema past it *)
  resume_from : int;
      (* positions below this were discharged by a previous slice: fast-
         forwarded without solving, with no statistics accrual (the base
         journal already carries their totals) *)
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

let new_tally ?portfolio ~totals ~start ~stop ~resume_from () =
  {
    position = start;
    start;
    stop;
    resume_from;
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

(* Whether the tally consumed a range that ends inside the schema budget
   (a job's range; never the sequential run's). *)
let ended ~run c = c.position >= c.stop && c.stop < run.r_limits.max_schemas

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
   resume frontier or reaches past the end of the range; a span wholly
   below the frontier is fast-forwarded. *)
let skip_span ~run c ~n ~slots =
  let p = c.position in
  if n = 0 || n <= c.resume_from - p then begin
    c.position <- p + n;
    true
  end
  else if p < c.resume_from || n > c.stop - p then false
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
   the resume frontier or the end of the range is split: its own
   schema, then each child in preorder, descending only into the
   children that straddle, so a budget abort lands on the exact
   position [max_schemas]. *)
let rec count_subtree ~run sim c ~ctx ~obs_mask =
  let t = c.totals in
  let n = Schema.size t.tree ~ctx ~obs_mask in
  if
    not
      (skip_span ~run c ~n ~slots:(fun () ->
           Encode.Sim.subtree_slots t.slot_memo sim ~obs_mask))
  then begin
    (* A single position straddles only when it lies at or past the end
       of the range. *)
    if
      Schema.is_schema t.tree ~obs_mask
      && (not (skip_span ~run c ~n:1 ~slots:(fun () -> Encode.Sim.leaf_slots sim)))
      && not (ended ~run c)
    then
      c.abort_msg <-
        Some (budget_messages ~max_schemas_hit:true ~schemas:c.position ~budget:0.0);
    List.iter
      (fun (ev, ctx, obs_mask) ->
        if c.abort_msg = None && not (ended ~run c) then
          count_subtree ~run (Encode.Sim.push_event sim ev) c ~ctx ~obs_mask)
      (Schema.children t.tree ~ctx ~obs_mask)
  end

(* Account one refuted subtree, rooted at [sim]'s prefix: one prune —
   core-guided or static when [cause] says so — its schemas counted in
   closed form, and with a certificate sink one record spanning the
   positions consumed.  A prefix or core refutation certifies [atoms],
   the refuted prefix; a static one replays the invariant engine's
   certificate. *)
let prune_subtree ~run c sim ~ctx ~obs_mask cause =
  if accruing c then begin
    let core = match cause with `Core _ -> 1 | `Prefix _ | `Static _ -> 0 in
    let static = match cause with `Static _ -> 1 | `Prefix _ | `Core _ -> 0 in
    c.pruned <- c.pruned + 1;
    c.core_pruned <- c.core_pruned + core;
    c.static <- c.static + static;
    c.pending <-
      Journal.add_delta c.pending
        { Journal.zero_delta with d_pruned = 1; d_core_pruned = core; d_static = static }
  end;
  let p0 = c.position in
  count_subtree ~run sim c ~ctx ~obs_mask;
  match run.r_certs with
  | Some sink when c.position > p0 -> (
    let position = p0 and span = c.position - p0 in
    match cause with
    | `Prefix atoms | `Core atoms -> Certs.emit_prefix sink ~position ~span atoms
    | `Static r ->
      Certs.emit_static sink ~position ~span r.Analysis.Invariants.atoms
        r.Analysis.Invariants.cert)
  | _ -> ()

(* The refuted prefix's atoms, for its certificate; only built when a
   sink is attached. *)
let cert_atoms ~run es = if run.r_certs = None then [] else Encode.prefix_atoms es

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
           | _ -> (
             let ctx = List.hd !ctx_stack and obs = List.hd !obs_stack in
             let ctx', obs' =
               match ev with
               | Schema.Unlock g -> (ctx lor (1 lsl g), obs)
               | Schema.Observe i -> (ctx, obs lor (1 lsl i))
             in
             let pruned sim cause =
               prune_subtree ~run c sim ~ctx:ctx' ~obs_mask:obs' cause;
               if c.abort_msg <> None || ended ~run c then stop := true;
               `Prune
             in
             if !prune_until <> None then
               (* Core-guided sibling prune: the active core already
                  refutes every subtree at this depth, so the sessions
                  are not touched at all — no push, no reach-check, no
                  prefix hit.  Only the slot simulation runs, to account
                  the skipped schemas exactly.  The parent prefix (which
                  the core refutes) bounds every schema of the skipped
                  subtree; certify it, not the never-asserted sibling
                  extension. *)
               pruned
                 (Encode.Sim.push_event (Encode.Sim.of_session es) ev)
                 (`Core (cert_atoms ~run es))
             else
               match static_refutation_event run ev with
               | Some refutation ->
                 (* Static prune: the invariant engine's certificate
                    refutes every schema unlocking this guard, so the
                    subtree is skipped without touching the sessions —
                    no push, no reach-check.  The certificate was
                    validated when built, and [--emit-certs] replays it
                    through the standalone checker like any other
                    prune. *)
                 pruned
                   (Encode.Sim.push_event (Encode.Sim.of_session es) ev)
                   (`Static refutation)
               | None -> (
                 let t1 = Unix.gettimeofday () in
                 let delta = Encode.push_event es ev in
                 let t2 = Unix.gettimeofday () in
                 Smt.Lia.push lia;
                 Smt.Lia.assert_atoms lia delta;
                 (* Reachability is decided by [check_quick] only: the
                    interval store and the model cache, never the
                    simplex.  Pruning therefore costs zero counted
                    solver steps, and the leaves that are checked are
                    the identical one-query-per-schema queries, so the
                    step total is at most that of solving every schema
                    on its own. *)
                 let h0 = !(c.hits) in
                 let reach = Smt.Lia.check_quick ~hits:c.hits lia in
                 let t3 = Unix.gettimeofday () in
                 (* Statistics of replayed positions live in the base
                    journal: accrue only past the resume point, with the
                    increments attributed (via [pending]) to the
                    position the uninterrupted run charges them to. *)
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
                   (* When the unsat core never touches the frame just
                      pushed, the conflict lives in a shallower prefix:
                      arm the sibling prune so the remaining subtrees at
                      every depth above the core's are skipped
                      outright. *)
                   (match Smt.Lia.unsat_depth lia with
                   | Some f when f < Smt.Lia.depth lia -> prune_until := Some f
                   | _ -> ());
                   let sim = Encode.Sim.of_session es in
                   let atoms = cert_atoms ~run es in
                   Smt.Lia.pop lia;
                   Encode.pop_event es;
                   pruned sim (`Prefix atoms)
                 | Smt.Lia.Sat _ | Smt.Lia.Unknown | Smt.Lia.Timeout ->
                   (* Unknown: cannot prune; descend and let the leaves
                      decide. *)
                   ctx_stack := ctx' :: !ctx_stack;
                   obs_stack := obs' :: !obs_stack;
                   rev_events := ev :: !rev_events;
                   `Descend)))
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
             let decide () =
               c.decided_at <- Some (c.position - 1);
               stop := true;
               false
             in
             let handle (encoded, verdict, et, st, dsteps, dcache) =
               c.position <- c.position + 1;
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
                 not (ended ~run c)
               | `Sat model ->
                 c.found <-
                   Some (Witness.of_model u spec (List.rev !rev_events) encoded model);
                 decide ()
               | `Unknown ->
                 c.abort_msg <- Some unknown_message;
                 decide ()
               | `Timeout ->
                 c.abort_msg <- Some timeout_message;
                 decide ()
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
                 not (ended ~run c))))
       ())

(* The walk over the range of [c] in the subtree at [prefix]: open both
   sessions at the prefix and reach-check it once; a refuted prefix
   (statically, or by the reach-check) is accounted in counting mode,
   otherwise the incremental DFS runs below it. *)
let run_inc_job ~run u spec c ~prefix ~ctx ~obs_mask =
  match static_refutation run prefix with
  | Some refutation ->
    (* The root refutation (or a statically-false guard already unlocked
       in the job's prefix) covers the whole subtree: skip it without
       opening the encoder or solver sessions at all. *)
    let sim = List.fold_left Encode.Sim.push_event (Encode.Sim.start u spec) prefix in
    prune_subtree ~run c sim ~ctx ~obs_mask (`Static refutation)
  | None -> (
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
      prune_subtree ~run c (Encode.Sim.of_session es) ~ctx ~obs_mask
        (`Prefix (cert_atoms ~run es))
    | Smt.Lia.Sat _ | Smt.Lia.Unknown | Smt.Lia.Timeout ->
      run_inc_subtree ~run u spec es lia c ~prefix_rev:(List.rev prefix) ~ctx0:ctx
        ~obs0:obs_mask)

(* What one tally contributes to the run: its share of the statistics
   and its verdict ([Holds]: every position of its range is UNSAT). *)
type tally_result = {
  ir_schemas : int;  (** enumeration positions consumed (checked + skipped) *)
  ir_skipped : int;
  ir_pruned : int;
  ir_core_pruned : int;
  ir_static : int;
  ir_hits : int;
  ir_slots : int;
  ir_steps : int;
  ir_encode_t : float;
  ir_solve_t : float;
  ir_cache : Smt.Portfolio.counters;  (** this tally's cache/portfolio activity *)
  ir_decided_at : int option;  (** absolute position of the deciding schema *)
  ir_outcome : outcome;
}

let tally_result c ~cache =
  {
    ir_schemas = max 0 (c.position - max c.start c.resume_from);
    ir_skipped = c.skipped;
    ir_pruned = c.pruned;
    ir_core_pruned = c.core_pruned;
    ir_static = c.static;
    ir_hits = !(c.hits);
    ir_slots = c.slots;
    ir_steps = !(c.steps);
    ir_encode_t = c.encode_t;
    ir_solve_t = c.solve_t;
    ir_cache = cache;
    ir_decided_at = c.decided_at;
    ir_outcome =
      (match (c.found, c.abort_msg) with
      | Some w, _ -> Violated w
      | None, Some reason -> Aborted reason
      | None, None -> Holds);
  }

let worker_stat worker_id ~busy results : worker_stat =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  {
    worker_id;
    schemas = sum (fun r -> r.ir_schemas);
    slots = sum (fun r -> r.ir_slots);
    solver_steps = sum (fun r -> r.ir_steps);
    busy_time = busy;
  }

(* The run's result from the tallies a sequential run executes — all of
   them up to the deciding one — plus the checkpointed prefix's totals
   and the quarantined holes the tracker recorded. *)
let finish ~run spec ~t0 ~workers ~decided_at outcome counted =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 counted in
  let sumf f = List.fold_left (fun acc r -> acc +. f r) 0.0 counted in
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
        jobs = List.length workers;
        workers;
        cache =
          List.fold_left
            (fun acc r -> Smt.Portfolio.add_counters acc r.ir_cache)
            Smt.Portfolio.zero_counters counted;
      }
  in
  let quarantined = (Journal.Tracker.snapshot run.r_tracker).Journal.quarantined in
  { spec; outcome = partialize ~quarantined ~decided_at outcome; stats }

let verify_sequential ~run u (spec : Ta.Spec.t) =
  let t0 = Unix.gettimeofday () in
  let c =
    new_tally ?portfolio:(pf_handle run) ~totals:(new_totals u spec) ~start:0
      ~stop:run.r_limits.max_schemas ~resume_from:run.r_resume_from ()
  in
  run_inc_job ~run u spec c ~prefix:[] ~ctx:0 ~obs_mask:0;
  pf_flush c.portfolio;
  let r = tally_result c ~cache:(pf_counters c.portfolio) in
  finish ~run spec ~t0
    ~workers:[ worker_stat 0 ~busy:(c.encode_t +. c.solve_t) [ r ] ]
    ~decided_at:r.ir_decided_at r.ir_outcome [ r ]

(* ------------------------------------------------------------------- *)
(* Parallel engine: the enumeration tree is cut at a fixed depth into
   contiguous preorder ranges — every schema above the cut is a
   one-position job, every subtree rooted at the cut is one job — and
   each job is the sequential walk over its range, on a worker domain.
   Jobs are pushed in preorder, and each stops at the first deciding
   schema inside its range, so the pool's first-stop contract again
   yields the sequential outcome, witness and schema count.
   Reachability pruning is a deterministic function of the prefix
   (interval propagation over the same assert sequence), so the set of
   schemas actually solved matches the sequential engine; only the
   granularity counters (subtrees pruned, prefix hits) differ, because
   one pruned subtree in the sequential engine may surface as several
   pruned jobs here. *)

let partition_depth = 2

type inc_job = {
  ij_prefix : Schema.event list;
  ij_ctx : int;
  ij_obs : int;
  ij_start : int;
  ij_stop : int;  (* [min (start + subtree size) max_schemas] *)
}

let verify_parallel ~run u (spec : Ta.Spec.t) =
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
    (* The [n] schemas of the subtree at [rev_prefix] from position
       [pos] on, as one job; answers whether to keep producing.  A
       subtree the checkpoint already covers is skipped, and once a
       pushed job reaches position [max_schemas] the deterministic
       budget abort is in flight: stop producing. *)
    let job rev_prefix ~ctx ~obs_mask ~n =
      if n <= resume_from - !pos then begin
        pos := !pos + n;
        true
      end
      else
        let start = !pos in
        let within = n <= limits.max_schemas - start in
        let accepted =
          push
            {
              ij_prefix = List.rev rev_prefix;
              ij_ctx = ctx;
              ij_obs = obs_mask;
              ij_start = start;
              ij_stop = (if within then start + n else limits.max_schemas);
            }
        in
        if accepted then rev_starts := start :: !rev_starts;
        accepted && within && (pos := start + n; true)
    in
    let rec go rev_prefix depth ~ctx ~obs_mask =
      ((not (Schema.is_schema tree ~obs_mask)) || job rev_prefix ~ctx ~obs_mask ~n:1)
      && List.for_all
           (fun (ev, ctx, obs_mask) ->
             if depth + 1 >= partition_depth then
               job (ev :: rev_prefix) ~ctx ~obs_mask
                 ~n:(Schema.size tree ~ctx ~obs_mask)
             else go (ev :: rev_prefix) (depth + 1) ~ctx ~obs_mask)
           (Schema.children tree ~ctx ~obs_mask)
    in
    go [] 0 ~ctx:0 ~obs_mask:0
  in
  let work ~worker _index job =
    let ph = phs.(worker) in
    let pc0 = pf_counters ph in
    let c =
      new_tally ?portfolio:ph ~totals:worker_totals.(worker) ~start:job.ij_start
        ~stop:job.ij_stop ~resume_from ()
    in
    (match check_budget ~run c with
    | Some msg -> c.abort_msg <- Some msg
    | None ->
      run_inc_job ~run u spec c ~prefix:job.ij_prefix ~ctx:job.ij_ctx
        ~obs_mask:job.ij_obs);
    tally_result c ~cache:(Smt.Portfolio.sub_counters (pf_counters ph) pc0)
  in
  let is_stop r = match r.ir_outcome with Holds -> false | _ -> true in
  let completion = Pool.run ~jobs:limits.jobs ~produce ~work ~is_stop () in
  Array.iter pf_flush phs;
  let cut = match completion.Pool.first_stop with Some i -> i | None -> max_int in
  let counted =
    List.filter_map
      (fun (i, _, r) -> if i <= cut then Some r else None)
      completion.Pool.results
  in
  (* Utilisation is reported over everything a worker actually ran,
     including work an earlier stop later made irrelevant. *)
  let workers =
    List.init limits.jobs (fun wid ->
        worker_stat wid ~busy:completion.Pool.busy.(wid)
          (List.filter_map
             (fun (_, w, r) -> if w = wid then Some r else None)
             completion.Pool.results))
  in
  (* Jobs the pool quarantined (raised twice) map back to their range's
     start position: the frontier hole covers the whole job, so a
     resumed run re-attempts it from its first schema.  Crashes inside a
     discharge are retried and quarantined inline by the walk (they never
     reach the pool), so the complete hole set lives in the tracker. *)
  let starts = Array.of_list (List.rev !rev_starts) in
  List.iter
    (fun (i, msg) -> Journal.Tracker.quarantine run.r_tracker starts.(i) msg)
    completion.Pool.quarantined;
  let outcome, decided_at =
    match completion.Pool.first_stop with
    | Some i ->
      let _, _, r = List.find (fun (j, _, _) -> j = i) completion.Pool.results in
      (r.ir_outcome, r.ir_decided_at)
    | None when completion.Pool.completed -> (Holds, None)
    | None ->
      let position, worker =
        List.fold_left
          (fun (p, w) (i, wid, r) ->
            let last = starts.(i) + r.ir_schemas - 1 in
            if last > p then (last, Some wid) else (p, w))
          (resume_from - 1, None)
          completion.Pool.results
      in
      (Aborted (stopped_unexpectedly ~position ~worker), None)
  in
  finish ~run spec ~t0 ~workers ~decided_at outcome counted

let verify_with_universe ?(limits = default_limits) ?checkpoint ?(checkpoint_every = 64)
    ?(resume = false) ?now ?failpoint ?certs ?portfolio u (spec : Ta.Spec.t) =
  (* Certificates are emitted by the sequential walk only: pooled jobs
     would interleave records from several domains. *)
  let limits = if certs = None then limits else { limits with jobs = 1 } in
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
    if limits.jobs <= 1 then verify_sequential ~run u spec else verify_parallel ~run u spec
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
