(** Generation of the paper's Table 2 (Section 6): one row per
    (threshold automaton, property) with size, schema count, average
    schema length, solver effort, wall-clock time and verdict, next to
    the paper's reported time.  Shared by the benchmark harness and the
    CLI. *)

type row = {
  ta_name : string;
  size : string;  (** "Ng/Lloc/Rrules" *)
  property : string;
  schemas : string;
  avg_len : string;
  steps : string;  (** total simplex steps *)
  skipped : string;  (** schemas covered by pruned subtrees *)
  time : string;
  verdict : string;
  paper : string;  (** the paper's reported time for this row *)
}

(** [row_of_result ~ta_label ~size ~paper result]. *)
val row_of_result :
  ta_label:string -> size:string -> paper:string -> Holistic.Checker.result -> row

val size_string : Ta.Automaton.t -> string

(** [checkpoint_file ~dir ta_key spec] — the canonical checkpoint path
    for one (TA, property) row under checkpoint directory [dir]:
    ["<ta_key>__<spec-name>.ckpt.json"], both components sanitised to
    [[A-Za-z0-9_-]].  The CLI uses the same scheme so a
    [holistic table2 --checkpoint DIR] run and a per-property
    [holistic verify --checkpoint DIR] run share files. *)
val checkpoint_file : dir:string -> string -> Ta.Spec.t -> string

(** [limits] (default {!Holistic.Checker.default_limits}) carries every
    budget — worker domains, static discharge, schema and solver-step
    caps — in one value; every row's verdict/schema columns are
    identical for any [jobs]/[static] choice, only wall-clock and the
    solver-effort columns change.  [slice] (default false) runs
    the automaton through {!Analysis.slice} first (keeping the locations
    the row's specs mention): outcomes and witnesses are unchanged,
    schema counts can only shrink.

    [checkpoint_dir] enables crash-safe resumption: each row persists a
    {!Holistic.Journal} checkpoint to {!checkpoint_file} every
    [checkpoint_every] (default 64) positions, and [resume] (default
    false) fast-forwards each row past its checkpointed frontier — an
    interrupted table regenerates with every completed row's verdict,
    schema count and solver-step totals identical to an uninterrupted
    run (see {!Holistic.Checker.verify}).

    [portfolio] routes every row's leaf discharges through one shared
    {!Smt.Portfolio} (cross-property cache + certifying discharge); rows
    are bit-identical with or without it except the Steps column: a hit
    costs no step, a miss also counts the certifying solver's. *)

(** [bv_rows ()] — the four bv-broadcast rows (fast). *)
val bv_rows :
  ?limits:Holistic.Checker.limits -> ?slice:bool -> ?checkpoint_dir:string ->
  ?resume:bool -> ?checkpoint_every:int -> ?portfolio:Smt.Portfolio.t ->
  unit -> row list

(** [naive_rows ~budget ()] — the three naive-consensus rows, each
    aborted after [budget] seconds (the paper's ">24h" analogue;
    [budget] overrides [limits.time_budget], and spans all resumed
    slices of a row). *)
val naive_rows :
  ?limits:Holistic.Checker.limits -> ?slice:bool -> ?checkpoint_dir:string ->
  ?resume:bool -> ?checkpoint_every:int -> ?portfolio:Smt.Portfolio.t ->
  budget:float -> unit -> row list

(** [simplified_rows ?specs ()] — the simplified-consensus rows
    (defaults to the five properties of Table 2; ~70 s total). *)
val simplified_rows :
  ?limits:Holistic.Checker.limits -> ?slice:bool -> ?checkpoint_dir:string ->
  ?resume:bool -> ?checkpoint_every:int -> ?portfolio:Smt.Portfolio.t ->
  ?specs:Ta.Spec.t list -> unit -> row list

(** [zoo_rows ()] — one Table-2-style row per (zoo entry, property),
    enumerating {!Models.Zoo.entries}; the paper-time column is ["-"]
    (the zoo models are not in Table 2).  The CI zoo job and
    [holistic table2 --zoo] append these to the paper rows. *)
val zoo_rows :
  ?limits:Holistic.Checker.limits -> ?slice:bool -> ?checkpoint_dir:string ->
  ?resume:bool -> ?checkpoint_every:int -> ?portfolio:Smt.Portfolio.t ->
  unit -> row list

(** [table2 ~quick ~naive_budget ()] — all rows. *)
val table2 :
  ?limits:Holistic.Checker.limits -> ?slice:bool -> ?checkpoint_dir:string ->
  ?resume:bool -> ?checkpoint_every:int -> ?portfolio:Smt.Portfolio.t ->
  quick:bool -> naive_budget:float -> unit -> row list

val print_text : out_channel -> row list -> unit
val to_markdown : row list -> string
val to_csv : row list -> string
