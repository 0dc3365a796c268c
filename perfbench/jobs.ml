(* Jobs: set-up, in-process execution, the traced replay and the check
   of every outcome against the expected table. *)

module C = Holistic.Checker
module E = Expected
module Z = Models.Zoo

let span = Tracer.span

(* Per-layer accumulators of the current pass (or set-up). *)
let acc : (string, float) Hashtbl.t = Hashtbl.create 64

let add name v =
  Hashtbl.replace acc name (v +. Option.value ~default:0. (Hashtbl.find_opt acc name))

let addi name n = add name (float_of_int n)

(* Run [f] without tallying or tracing it. *)
let untallied f =
  let saved = Hashtbl.copy acc and tracing = !Tracer.enabled in
  Tracer.enabled := false;
  Fun.protect
    ~finally:(fun () ->
      Hashtbl.reset acc;
      Hashtbl.iter (Hashtbl.replace acc) saved;
      Tracer.enabled := tracing)
    f

(* [timed name f] runs [f] in a span and adds its seconds to the metric
   [name]; the span is named after the metric, less its "_s"/".s"
   suffix. *)
let timed name f =
  let span_name =
    if String.ends_with ~suffix:"_s" name || String.ends_with ~suffix:".s" name then
      String.sub name 0 (String.length name - 2)
    else name
  in
  let t0 = Tracer.now () in
  let r = span span_name f in
  add name (Tracer.now () -. t0);
  r

(* ------------------------------------------------------------------ *)
(* Set-up.                                                              *)

type job = {
  row : E.row;
  cap : int option;  (** schema budget: the first [cap] preorder positions only *)
  spec : Ta.Spec.t option;  (** [None] for a lint-rejected mutant *)
  u : Holistic.Universe.t option;
  static : bool;  (** the invariant engine refutes every schema at the root *)
  mutant : (Z.entry * Z.mutant) option;
}

let id j = E.id j.row

(* Automata are built here where the library exposes a constructor, so
   set-up time includes model construction; the others are module-level
   values. *)
let construct key =
  let open Models in
  let zoo_specs key = List.map fst (Option.get (Z.find key)).Z.specs in
  match key with
  | "simplified" ->
    ( timed "model.construct_s" (fun () ->
          Simplified_ta.make_with_resilience ~name:"simplified_consensus" Params.resilience),
      Simplified_ta.all_specs )
  | "simplified-broken" ->
    ( timed "model.construct_s" (fun () ->
          Simplified_ta.make_with_resilience ~name:"simplified_consensus_broken"
            Params.broken_resilience),
      Simplified_ta.all_specs )
  | "dbft-rta" ->
    ( (timed "rta.unroll_s" (fun () ->
           Ta.Rta.unroll ~suffix:Ta.Rta.legacy_suffix ~rounds:2 Dbft_rta.rta))
        .Ta.Rta.automaton,
      zoo_specs key )
  | "phase-king" ->
    ( (timed "rta.unroll_s" (fun () -> Ta.Rta.unroll ~rounds:Phase_king.rounds Phase_king.rta))
        .Ta.Rta.automaton,
      zoo_specs key )
  | _ -> (
    match Service.Registry.resolve key with
    | Ok m -> m
    | Error e -> failwith e)

let find_spec specs name =
  match List.find_opt (fun (s : Ta.Spec.t) -> s.Ta.Spec.name = name) specs with
  | Some s -> s
  | None -> failwith ("unknown property " ^ name)

let prepare_spec ta spec =
  timed "analysis.precheck_s" (fun () -> C.precheck ta spec);
  let inv = timed "analysis.invariants_s" (fun () -> Analysis.Invariants.build ~spec ta) in
  Analysis.Invariants.root_refutation inv <> None

(* Everything a workload does before its first discharge: construct the
   automata, build one universe per automaton, precheck every property
   and run the invariant engine on it. *)
let setup rows =
  let models = Hashtbl.create 16 in
  let model key =
    match Hashtbl.find_opt models key with
    | Some m -> m
    | None ->
      let ta, specs = construct key in
      let u = timed "universe.build_s" (fun () -> Holistic.Universe.build ta) in
      Hashtbl.replace models key (ta, specs, u);
      (ta, specs, u)
  in
  List.map
    (fun ((row : E.row), cap) ->
      match List.find_opt (fun (_, m) -> m.Z.mutant_key = row.E.model) Z.all_mutants with
      | Some ((_, m) as mutant) -> (
        let ta = m.Z.mutant_automaton in
        match m.Z.rejection with
        | Z.Lint _ -> { row; cap; spec = None; u = None; static = false; mutant = Some mutant }
        | Z.Checker spec | Z.Fuzz { spec; _ } ->
          let u = timed "universe.build_s" (fun () -> Holistic.Universe.build ta) in
          let static = prepare_spec ta spec in
          { row; cap; spec = Some spec; u = Some u; static; mutant = Some mutant })
      | None ->
        let ta, specs, u = model row.E.model in
        let spec = find_spec specs row.E.spec in
        let static = prepare_spec ta spec in
        { row; cap; spec = Some spec; u = Some u; static; mutant = None })
    rows

(* ------------------------------------------------------------------ *)
(* Outcomes and their check.                                            *)

type observed =
  | Run of { outcome : string; schemas : int; witness : bool }
  | Linted of string list  (** error codes *)
  | Refuted of string  (** checker witness against this property *)
  | Fuzzed of string  (** checker holds on this property, simnet violates it *)
  | Undetected
  | Crashed of string

let describe = function
  | Run { outcome; schemas; witness } ->
    Printf.sprintf "%s (%d schemas%s)" outcome schemas (if witness then ", witness" else "")
  | Linted codes -> "lint " ^ String.concat "," codes
  | Refuted s -> "counterexample to " ^ s
  | Fuzzed s -> "checker holds on " ^ s ^ ", fuzz violates"
  | Undetected -> "mutant undetected"
  | Crashed e -> "crashed: " ^ e

let outcome_name = function
  | C.Holds -> "holds"
  | C.Violated _ -> "violated"
  | C.Aborted _ -> "aborted"
  | C.Partial _ -> "partial"

let observe (r : C.result) =
  Run
    {
      outcome = outcome_name r.C.outcome;
      schemas = r.C.stats.C.schemas_checked;
      witness =
        (match r.C.outcome with C.Violated w -> w.Holistic.Witness.steps <> [] | _ -> false);
    }

(* A daemon result row, read the same way. *)
let observe_row row =
  let module J = Jsonc in
  Run
    {
      outcome = J.to_str (J.member "outcome" row);
      schemas = J.to_int (J.member "schemas" row);
      witness = J.member "witness" row <> J.Null;
    }

(* A capped Holds row must stop at its budget with no witness: every one
   of the first [cap] schemas is unsatisfiable.  Its full schema count
   is checked once per run by [count_check]. *)
let matches (row : E.row) cap obs =
  match (row.E.expect, obs) with
  | E.Verdict (E.Holds, _), Run { outcome = "aborted"; schemas; witness = false } ->
    cap = Some schemas
  | E.Verdict (E.Holds, n), Run { outcome = "holds"; schemas; witness = false } ->
    cap = None && (n = None || n = Some schemas)
  | E.Verdict (E.Violated, _), Run { outcome = "violated"; witness = true; _ } -> true
  | E.Lint code, Linted codes -> List.mem code codes
  | E.Counterexample s, Refuted s' | E.Fuzz s, Fuzzed s' -> s = s'
  | _ -> false

(* Failures: (job id, expected, observed) of every mismatch. *)
let attempted = ref 0
let failures : (string * string * string) list ref = ref []

let record id ~expected ok observed =
  incr attempted;
  if not ok then failures := (id, expected, observed) :: !failures

let check_row (row : E.row) cap obs =
  record (E.id row) ~expected:(E.describe row.E.expect) (matches row cap obs) (describe obs)

let check j obs = check_row j.row j.cap obs

(* Once per run: a capped row's full enumeration has the table's count. *)
let count_check j =
  match (j.row.E.expect, j.cap, j.u, j.spec) with
  | E.Verdict (_, Some n), Some _, Some u, Some spec ->
    let got = Holistic.Schema.count u spec ~limit:max_int in
    record (id j ^ " (count)") ~expected:(Printf.sprintf "%d schemas" n)
      (got = `Exactly n)
      (match got with
       | `Exactly k -> Printf.sprintf "%d schemas" k
       | `More_than k -> Printf.sprintf "> %d schemas" k)
  | _ -> ()

(* ------------------------------------------------------------------ *)
(* In-process execution.                                                *)

let limits ?(jobs = 1) cap =
  { C.default_limits with jobs; max_schemas = Option.value cap ~default:C.default_limits.max_schemas }

(* Engine split of one Checker.verify call, from its stats. *)
let engine_stats (s : C.stats) =
  add "engine.encode_s" s.C.encode_time;
  add "engine.solve_s" s.C.solve_time;
  add "engine.other_s" (s.C.time -. s.C.encode_time -. s.C.solve_time);
  addi "engine.steps" s.C.solver_steps;
  addi "engine.pruned" s.C.subtrees_pruned;
  addi "engine.skipped" s.C.schemas_skipped;
  addi "engine.prefix_hits" s.C.prefix_hits;
  addi "engine.core_prunes" s.C.core_prunes;
  addi "engine.static_prunes" s.C.static_prunes;
  let c = s.C.cache in
  addi "portfolio.hits" c.Smt.Portfolio.hits;
  addi "portfolio.misses" c.Smt.Portfolio.misses;
  addi "portfolio.cross" c.Smt.Portfolio.cross;
  addi "portfolio.w_interval" c.Smt.Portfolio.w_interval;
  addi "portfolio.w_cooper" c.Smt.Portfolio.w_cooper;
  addi "portfolio.w_simplex" c.Smt.Portfolio.w_simplex

let verify ?portfolio ?jobs j =
  let r =
    span "checker.verify" (fun () ->
        C.verify_with_universe ~limits:(limits ?jobs j.cap) ?portfolio (Option.get j.u)
          (Option.get j.spec))
  in
  engine_stats r.C.stats;
  r

let execute ?portfolio j =
  match j.mutant with
  | None -> observe (verify ?portfolio j)
  | Some (e, m) -> (
    (* Lint against the property the mutant is checked on, or against
       the entry's properties when lint alone must reject it. *)
    let specs = match j.spec with Some s -> [ s ] | None -> List.map fst e.Z.specs in
    let errors =
      span "analysis.lint" (fun () -> Analysis.errors (Analysis.run ~specs m.Z.mutant_automaton))
    in
    if errors <> [] then
      Linted (List.sort_uniq compare (List.map (fun (d : Analysis.diagnostic) -> d.Analysis.code) errors))
    else
      match j.spec with
      | None -> Undetected
      | Some spec -> (
        let r = verify j in
        match (r.C.outcome, m.Z.rejection) with
        | C.Violated _, _ -> Refuted spec.Ta.Spec.name
        | C.Holds, Z.Fuzz { n; t; f; value; sched_seed; _ } -> (
          match
            span "fuzz.realize" (fun () -> Fuzz.Crossval.realize ~n ~t ~f ~value ~sched_seed)
          with
          | Some trace when trace.Fuzz.Trace.events <> [] -> Fuzzed spec.Ta.Spec.name
          | _ -> Undetected)
        | _ -> Undetected))

(* Raised by the signal handlers: never counted as a job crash.  The
   checker's fail-soft retry may swallow it inside a discharge, so the
   handlers also ask the checker to wind down, and [run] re-raises once
   the job returns. *)
exception Interrupted

(* Run one job, check it, and return its seconds to verdict.  The job
   starts on an empty minor heap, so that it pays for its own minor
   collections and not for what the job before it left there: a
   millisecond job is otherwise slower whenever it happens to fill the
   heap. *)
let run ?portfolio j =
  Gc.minor ();
  let t0 = Tracer.now () in
  let obs =
    Tracer.with_job (id j) (fun () ->
        span "job" (fun () ->
            try execute ?portfolio j with
            | (Interrupted | Out_of_memory | Stack_overflow) as e -> raise e
            | e -> Crashed (Printexc.to_string e)))
  in
  if C.interrupt_requested () then raise Interrupted;
  let dt = Tracer.now () -. t0 in
  check j obs;
  (dt, obs)

(* ------------------------------------------------------------------ *)
(* The traced replay: count the preorder with Schema.count, then
   re-discharge the job's schemas one by one through Encode.encode
   (optionally Qcache.fingerprint) and Lia.solve, with no pruning and
   no cache.  Its verdict and schema count must equal Checker.verify's. *)

let lia_max_steps = C.default_limits.C.lia_max_steps

let leaf ~max_steps atoms =
  let steps = ref 0 in
  let r = timed "lia.solve_s" (fun () -> Smt.Lia.solve ~steps ~max_steps atoms) in
  addi "lia.steps" !steps;
  match r with
  | Smt.Lia.Sat _ -> add "lia.sat" 1.; `Sat
  | Smt.Lia.Unsat -> add "lia.unsat" 1.; `Unsat
  | Smt.Lia.Unknown | Smt.Lia.Timeout -> add "lia.unknown" 1.; `Unknown

(* The conjunctive part first; only when it is satisfiable, the justice
   case split (one cube per branch entry), as the checker does. *)
let decide ~max_steps (e : Holistic.Encode.encoded) =
  let leaf = leaf ~max_steps in
  match leaf e.Holistic.Encode.atoms with
  | (`Unsat | `Unknown) as r -> r
  | `Sat when e.Holistic.Encode.branches = [] -> `Sat
  | `Sat ->
    let rec go atoms = function
      | [] -> leaf atoms
      | alternatives :: rest ->
        let rec try_alts = function
          | [] -> `Unsat
          | cube :: others -> (
            match go (cube @ atoms) rest with `Unsat -> try_alts others | r -> r)
        in
        try_alts alternatives
    in
    go e.Holistic.Encode.atoms e.Holistic.Encode.branches

type replayed = { outcome : string; schemas : int; wall : float; root : Tracer.span option }

let replay ~fingerprint ~count j =
  let u = Option.get j.u and spec = Option.get j.spec in
  let t0 = Tracer.now () in
  let outcome, schemas =
    span "replay" (fun () ->
        if j.static then ("holds", count)
        else begin
          let n = ref 0 and verdict = ref "holds" in
          let _complete : bool =
            Holistic.Schema.enumerate u spec ~on_schema:(fun s ->
                if Some !n = j.cap then begin
                  verdict := "aborted";
                  false
                end
                else begin
                  incr n;
                  let e = timed "encode.s" (fun () -> Holistic.Encode.encode u spec s) in
                  addi "encode.atoms" (List.length e.Holistic.Encode.atoms);
                  addi "encode.slots" e.Holistic.Encode.n_slots;
                  if fingerprint then
                    ignore (timed "qcache.fingerprint_s" (fun () -> Smt.Qcache.fingerprint e.atoms));
                  (* The checker's one escalating retry on a dry budget. *)
                  let verdict_of =
                    match decide ~max_steps:lia_max_steps e with
                    | `Unknown -> decide ~max_steps:(4 * lia_max_steps) e
                    | r -> r
                  in
                  match verdict_of with
                  | `Unsat -> true
                  | `Sat -> verdict := "violated"; false
                  | `Unknown -> verdict := "unknown"; false
                end)
          in
          (!verdict, !n)
        end)
  in
  let wall = Tracer.now () -. t0 in
  let root = match !Tracer.recorded with s :: _ when s.Tracer.name = "replay" -> Some s | _ -> None in
  { outcome; schemas; wall; root }

(* Enumeration alone, then the replay; both checked against the engine's
   outcome [obs] from the same pass. *)
let analyse ~fingerprint j obs =
  match (j.u, j.spec, obs) with
  | Some u, Some spec, Run { outcome; schemas; _ } ->
    Tracer.with_job (id j) (fun () ->
        let count =
          timed "schema.walk_s" (fun () ->
              match Holistic.Schema.count u spec ~limit:max_int with
              | `Exactly n | `More_than n -> n)
        in
        addi "schema.positions" count;
        let r = replay ~fingerprint ~count j in
        record (id j ^ " (replay)")
          ~expected:(Printf.sprintf "%s (%d schemas)" outcome schemas)
          (r.outcome = outcome && r.schemas = schemas)
          (Printf.sprintf "%s (%d schemas)" r.outcome r.schemas);
        Some r)
  | _ -> None
