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

    Soundness is never delegated to the hash: a lookup returns the entry
    only when its recorded canonical atom list is equal (as a list of
    canonical atoms) to the query's, so an MD5 collision degrades to a
    miss, not a wrong verdict.  SAT entries carry the literal query and
    its model so hits can be revalidated by {!Lia.check_model} at zero
    solver cost; UNSAT entries carry an optional {!Certificate.t}
    (mandatory when persisted) checkable by the standalone
    {!Certcheck}.

    The shared table is sharded, each shard behind its own mutex, and
    worker domains go through {!Local} handles with write buffers so the
    hot path takes no lock on repeated hits. *)

module B := Numbers.Bigint

(** [fingerprint atoms] is the canonical cache key of the conjunction
    plus the canonical, sorted, deduplicated atom list the key digests.
    Two conjunctions get equal keys iff they have equal canonical atom
    sets (up to MD5 collision, which the entry's stored [catoms] guard
    against). *)
val fingerprint : Atom.t list -> string * Atom.t list

type verdict =
  | Sat_model of { atoms : Atom.t list; model : (int * B.t) list }
      (** the literal (pre-canonicalization) query and the model the
          solver produced for it.  The literal atoms are kept so a hit
          can require literal-list equality: the deciding SAT query of a
          warm rerun then reuses the byte-identical model — and with it
          the byte-identical witness — the cold run produced. *)
  | Unsat_cert of Certificate.t option
      (** A miss refuted by {!Portfolio}'s certifying lane is born with
          its certificate, already replayed by {!Certcheck.validate}.
          [None] comes only from {!Portfolio}'s model lane, which decides
          the queries the certifying lane could not certify; such
          entries serve hits in this process but are never persisted.
          Entries loaded from disk always carry a validated
          certificate. *)

type entry = {
  catoms : Atom.t list;  (** canonical sorted atoms — the key's preimage *)
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
    UNSAT entry's certificate must already have passed
    {!Certcheck.validate}: {!Cachefile} persists it without a replay. *)
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

(** [validate key entry] checks the entry is self-evidencing: the key is
    the fingerprint of [catoms]; a SAT entry's literal atoms fingerprint
    to the same key and its model satisfies them; an UNSAT entry carries
    a certificate accepted by {!Certcheck.validate} against [catoms].
    Certificate-less UNSAT entries are rejected. *)
val validate : string -> entry -> (unit, string) result

(** {1 Canonical-JSON codec}

    Atom and certificate encodings are shared with {!Certificate}, so a
    persisted cache is replayable by the same tooling as [--emit-certs]
    files. *)

val entry_to_json : string -> entry -> Jsonc.t

(** @raise Jsonc.Parse_error on shape mismatch. *)
val entry_of_json : Jsonc.t -> string * entry
