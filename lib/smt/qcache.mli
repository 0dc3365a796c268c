(** Cross-property, cross-run discharge cache for QF_LIA conjunctions.

    Every leaf query the checker discharges is a plain conjunction of
    atoms; structurally identical conjunctions recur across the
    properties of one automaton (shared prefixes encode to the same
    constraints), across [--jobs] worker domains, and across runs.  This
    module memoizes their verdicts under a {e canonical fingerprint}:
    atoms are normalized to {!Atom.canonical} form (integer coefficients
    divided by their GCD, canonical equality sign), sorted and
    deduplicated, so the key is invariant under atom construction order
    and under GCD-equivalent linexpr forms — [2x+2 <= 0 /\ y <= 0] and
    [y <= 0 /\ x+1 <= 0] share one entry.

    Soundness is never delegated to the hash.  A certified UNSAT entry
    stores only its {e core}: the canonical atoms its certificate cites,
    with the certificate renumbered onto them
    ({!Certificate.restrict}).  Any conjunction that contains the core
    is UNSAT (conjunction is monotone), so {!Portfolio} serves the entry
    only when the key matches {e and} every core atom is among the
    query's canonical atoms; the certificate was replayed against the
    core when the entry entered the table (at discharge or at load).
    An MD5 collision therefore either degrades to a miss or serves a
    verdict that is still correct.  SAT entries carry the literal query
    and its model, so hits can be revalidated by {!Lia.check_model} at
    zero solver cost.  Refutations the certifying lane could not certify
    keep their full canonical atom list as the hit guard; they live only
    in this process and are never persisted.

    The shared table is sharded, each shard behind its own mutex, and
    worker domains go through {!Local} handles with write buffers so the
    hot path takes no lock on repeated hits. *)

module B := Numbers.Bigint

(** [fingerprint atoms] is the canonical cache key of the conjunction
    plus the canonical, sorted, deduplicated atom list the key digests
    (a compact serialization of each atom: relation, variable ids,
    integer coefficients, constant).  Two conjunctions get equal keys
    iff they have equal canonical atom sets, up to MD5 collision. *)
val fingerprint : Atom.t list -> string * Atom.t list

type verdict =
  | Sat_model of { atoms : Atom.t list; model : (int * B.t) list }
      (** the literal (pre-canonicalization) query and the model the
          solver produced for it.  The literal atoms are kept so a hit
          can require literal-list equality: the deciding SAT query of a
          warm rerun then reuses the byte-identical model — and with it
          the byte-identical witness — the cold run produced. *)
  | Unsat_core of { core : Atom.t list; cert : Certificate.t }
      (** a certified refutation: [core] is the sub-list of the query's
          canonical atoms the certificate cites (canonical sorted order,
          deduplicated), and [cert]'s input indices point into [core].
          Born in {!Portfolio}'s certifying lane, replayed there by
          {!Certcheck.validate}; loaded from disk only after the same
          replay ({!validate}). *)
  | Unsat_uncertified of Atom.t list
      (** a refutation from {!Portfolio}'s model lane, which decides the
          queries the certifying lane could not certify.  It carries the
          query's canonical atoms as its hit guard, serves hits in this
          process only and is never persisted. *)

type entry = {
  verdict : verdict;
  origin : string;  (** property that first discharged the query *)
}

type t

val create : unit -> t

(** Number of entries over all shards. *)
val length : t -> int

val find : t -> string -> entry option

(** First write wins: racing domains inserting the same key keep the
    existing entry (the verdicts agree — both revalidate on hit).  An
    [Unsat_core] entry's certificate must already have passed
    {!Certcheck.validate} against its core: {!Cachefile} persists it
    without a replay. *)
val add : t -> string -> entry -> unit

val fold : (string -> entry -> 'a -> 'a) -> t -> 'a -> 'a

(** Per-domain view: reads memoize shared entries locally, writes are
    buffered and flushed to the shared table every few insertions (and
    on {!Local.flush}), so workers do not serialize on the shard
    mutexes per query. *)
module Local : sig
  type handle

  val create : t -> handle
  val find : handle -> string -> entry option
  val add : handle -> string -> entry -> unit
  val flush : handle -> unit
end

(** {1 Validation (persistence support)} *)

(** [validate key entry] checks the entry is self-evidencing.  A SAT
    entry's literal atoms fingerprint to [key] and its model satisfies
    them.  An UNSAT entry's core is sorted and deduplicated under
    {!Atom.compare_canonical}, and its certificate is accepted by {!Certcheck.validate} against the
    core; its key cannot be re-derived (the core is a subset of the
    keyed query) and is only a lookup index.  Certificate-less UNSAT
    entries are rejected. *)
val validate : string -> entry -> (unit, string) result

(** {1 Canonical-JSON codec}

    Atom and certificate encodings are shared with {!Certificate}, so a
    persisted cache is replayable by the same tooling as [--emit-certs]
    files. *)

(** @raise Invalid_argument on an [Unsat_uncertified] entry. *)
val entry_to_json : string -> entry -> Jsonc.t

(** @raise Jsonc.Parse_error on shape mismatch. *)
val entry_of_json : Jsonc.t -> string * entry
