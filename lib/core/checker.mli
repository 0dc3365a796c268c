(** The parameterized model checker: verifies a temporal property of a
    threshold automaton for {e all} parameter valuations admitted by the
    resilience condition, by enumerating schemas ({!Schema}) and
    discharging one linear-integer-arithmetic query per schema
    ({!Encode}).

    Soundness/completeness requires the structural properties validated
    by {!precheck}: monotone guards (guaranteed by the {!Ta.Guard}
    constructors), DAG-shaped locations, and — for liveness — an
    absorbing violation target.  All three automata of the paper
    qualify.

    The engine walks the enumeration tree once per property: each event
    pushes its constraint delta onto warm {!Encode.session}/
    {!Smt.Lia.session} stacks, and prefixes the session's zero-step
    layers ({!Smt.Lia.check_quick}: interval propagation, model cache)
    prove unsatisfiable prune their whole subtree — sound because
    finalizing a schema only appends atoms to its prefix (see
    DESIGN.md).  Surviving schemas are discharged on the finalized
    query, which is exactly the query {!Encode.encode} builds for the
    schema alone, so outcomes, witnesses, schema counts and slot totals
    are those of solving every schema on its own, and the solver-step
    total is at most that one-query-per-schema total: the steps counted
    are exactly those of the schemas that were not pruned.

    With [limits.jobs > 1] the tree is cut into contiguous preorder
    ranges, and each range is the same walk, run on one of that many
    OCaml 5 worker domains ({!Pool}) while the cut runs as a producer.
    The first satisfiable/unknown schema {e in enumeration order} still
    decides the result, so outcomes, witnesses, schema counts and slot
    totals are bit-identical to the sequential engine ([jobs = 1]).
    Pruning is a deterministic function of the prefix, so both solve the
    same schema set; only wall-clock time, the per-worker utilisation
    split and the granularity counters (subtrees pruned, prefix hits)
    differ, one sequential prune possibly surfacing as several pruned
    jobs.  (The one necessarily racy case: a [time_budget] abort may
    land on a different schema count — true of two sequential runs as
    well.) *)

type limits = {
  max_schemas : int;  (** abort the enumeration beyond this many schemas *)
  time_budget : float option;  (** wall-clock seconds; [None] = unlimited *)
  lia_max_steps : int;  (** branch-and-bound budget per query *)
  jobs : int;  (** worker domains; [1] = the sequential engine *)
  static : bool;
      (** discharge schemas statically when the invariant engine
          ({!Analysis.Invariants}) carries a certified refutation of
          their query — the root refutation covering every schema of the
          spec, or a statically-false guard atom covering every schema
          that unlocks it (default).  Every refutation's certificate was
          validated by {!Smt.Certcheck} when built, and outcomes,
          witnesses and schema counts are bit-identical to a run without
          static discharge: only UNSAT work is elided, so the solver-step
          total can only shrink. *)
}

val default_limits : limits

(** Budget preset shared by the fuzzing cross-validators (lib/fuzz and
    test/test_crossval): the random automata are tiny, so a run that
    needs more than [crossval_limits.max_schemas] schemas is pathological
    and is skipped rather than solved to exhaustion.  One definition here
    keeps the fuzzers' budgets from drifting apart. *)
val crossval_limits : limits

type outcome =
  | Holds  (** every schema query is unsatisfiable: the property is verified for all parameters *)
  | Violated of Witness.t
  | Aborted of string  (** budget exhausted (the paper's ">24h" rows) *)
  | Partial of { quarantined : (int * string) list; reason : string }
      (** fail-soft verdict: some preorder positions were quarantined
          (their discharge crashed twice) and no deciding schema precedes
          the first hole, so neither [Holds] nor the first witness can be
          asserted.  [quarantined] lists the holes with their exception
          messages; every other schema was processed normally, and a
          checkpointed rerun re-attempts exactly the holes.  A run whose
          deciding schema {e precedes} every quarantined position still
          decides normally — the transcript up to the decision is
          complete. *)

(** Per-worker utilisation.  Unlike the totals in {!stats}, these count
    everything a worker actually executed — including schemas an earlier
    stop later made irrelevant — so they reflect machine usage, not the
    deterministic verification transcript. *)
type worker_stat = {
  worker_id : int;
  schemas : int;
  slots : int;
  solver_steps : int;  (** simplex calls (branch-and-bound nodes) *)
  busy_time : float;  (** wall-clock seconds encoding + solving *)
}

type stats = {
  schemas_checked : int;
      (** schemas discharged: solved directly, or covered by a pruned
          subtree — always the number of enumeration positions consumed,
          so it is identical for every [jobs] *)
  schemas_skipped : int;
      (** of those, schemas never solved individually because their
          subtree was pruned *)
  subtrees_pruned : int;  (** refuted subtrees skipped without solving *)
  core_prunes : int;
      (** of those, sibling subtrees skipped without any reach-check
          because the last conflict's unsat core was confined to frames
          strictly below them — the core refutes every extension of the
          shallower prefix, siblings included *)
  static_prunes : int;
      (** of those, subtrees refuted by the invariant engine at zero
          solver steps; 0 with [limits.static = false] *)
  prefix_hits : int;
      (** reachability checks answered definitively by the prefix state
          — the propagated interval store or the cached model — at zero
          solver steps *)
  slots_total : int;  (** sum of schema lengths (rule slots) *)
  solver_steps : int;  (** total simplex calls over the counted schemas *)
  encode_time : float;  (** wall-clock seconds spent building queries *)
  solve_time : float;  (** wall-clock seconds spent in the solver *)
  time : float;  (** wall-clock seconds *)
  jobs : int;  (** worker domains used *)
  workers : worker_stat list;  (** one entry per worker (singleton when sequential) *)
  cache : Smt.Portfolio.counters;
      (** discharge-cache effectiveness (hits, misses, cross-property
          hits) and per-backend portfolio wins, over the counted
          transcript; all-zero when the run carries no [?portfolio].
          Cumulative across resumed slices (the journal carries the
          checkpointed prefix's totals since version 4). *)
}

type result = { spec : Ta.Spec.t; outcome : outcome; stats : stats }

(** [precheck ta spec] validates the structural preconditions, via the
    error-level passes of {!Analysis}.
    @raise Invalid_argument when they fail. *)
val precheck : Ta.Automaton.t -> Ta.Spec.t -> unit

(** [request_interrupt ()] asks every running verification to wind down
    cooperatively: engines notice at the next budget check and — through
    the stop predicate threaded into the solver — within one
    {!Smt.Simplex.stop_interval} quantum inside a discharge.  The run
    returns [Aborted] (resumable: its checkpoint is flushed first).
    Safe to call from a signal handler. *)
val request_interrupt : unit -> unit

(** [clear_interrupt ()] re-arms verification after an interrupt (tests,
    REPL loops). *)
val clear_interrupt : unit -> unit

(** [interrupt_requested ()] reports whether {!request_interrupt} has
    fired (and not been cleared) — drivers use it to pick an exit code
    and tell a signal-interrupted run from an ordinary budget abort. *)
val interrupt_requested : unit -> bool

(** [verify ?limits ?slice ta spec].  With [~slice:true] the automaton
    is first run through {!Analysis.slice} (keeping the locations the
    spec mentions), so the universe is built over the live rules only —
    outcome- and witness-preserving, with schema counts no larger than
    the unsliced run.

    Crash-safe resumption: with [~checkpoint:path] the run persists a
    {!Journal} checkpoint to [path] — atomically, every
    [checkpoint_every] (default 64) discharged positions and once at the
    end, whatever the outcome.  With [~resume:true] an existing
    checkpoint at [path] is loaded first: its fingerprint must match the
    automaton/property pair ([Invalid_argument] otherwise), the
    enumeration fast-forwards past the checkpointed frontier without
    re-solving, and the reported verdict, witness, schema count and
    solver-step totals are identical to an uninterrupted run (wall-clock
    times naturally differ; [time_budget] spans all slices of the run).
    A missing file with [~resume:true] is a cold start, not an error, so
    retry loops need no existence check.

    [?now] substitutes the budget clock (deadline and interrupt logic
    only — statistics keep real wall-clock), making timeout aborts
    deterministic in tests.  [?failpoint] is called with each preorder
    position just before its discharge; a raising failpoint exercises
    the retry/quarantine path ({!Partial}).

    [?certs] attaches a certificate emission sink ({!Certs}): the run
    re-proves every UNSAT verdict — discharged schema or pruned subtree
    — on the certifying LIA engine and appends one JSONL line per
    verdict, replayable with [holistic check-cert].  A run with a sink
    is sequential whatever [limits.jobs] says (and reports [jobs = 1]),
    so the records tile the transcript in preorder.

    [?portfolio] routes every leaf discharge through a shared
    {!Smt.Portfolio}: structurally repeated queries are answered from
    the cross-property discharge cache at zero solver steps, and misses
    race the refuting backends before the simplex.  Verdicts, witnesses
    and schema counts are pinned bit-identical to the uncached engine
    (see DESIGN.md); only solver effort — and with it [solver_steps] —
    changes.  Passing one portfolio across the properties of an
    automaton (and persisting its cache with {!Cachefile}) is what
    makes cross-property and warm-start reuse effective. *)
val verify :
  ?limits:limits ->
  ?slice:bool ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  ?now:(unit -> float) ->
  ?failpoint:(int -> unit) ->
  ?certs:Certs.sink ->
  ?portfolio:Smt.Portfolio.t ->
  Ta.Automaton.t ->
  Ta.Spec.t ->
  result

(** [verify_with_universe ?limits u spec] reuses a prebuilt universe
    (cheaper when checking several specs of one automaton).  Checkpoint
    and fault-injection parameters as in {!verify}. *)
val verify_with_universe :
  ?limits:limits ->
  ?checkpoint:string ->
  ?checkpoint_every:int ->
  ?resume:bool ->
  ?now:(unit -> float) ->
  ?failpoint:(int -> unit) ->
  ?certs:Certs.sink ->
  ?portfolio:Smt.Portfolio.t ->
  Universe.t ->
  Ta.Spec.t ->
  result

val pp_result : Format.formatter -> result -> unit

(** One line per worker: schemas, slots, solver steps, busy seconds. *)
val pp_worker_stats : Format.formatter -> result -> unit
