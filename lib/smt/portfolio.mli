(** Discharge through the cache: a certifying lane, then the reference
    engine.

    Every leaf query first consults the {!Qcache} (a hit is revalidated
    and answered at zero solver steps).  A miss runs two lanes, in
    order:

    + {e certifying simplex} — {!Lia.solve_cert} on the canonical atoms
      (the cache key's preimage).  An UNSAT answer's certificate is
      restricted to the atoms it cites ({!Certificate.restrict}) and
      replayed once against that core by {!Certcheck.validate}; if it
      passes, the core and the certificate are cached and the miss is
      answered [Unsat] without touching the reference engine.  A
      timeout is returned as is.  Every other answer — SAT, a run-dry
      budget, a certificate the replay rejects — goes to the model
      lane.
    + {e model lane} — {!Lia.solve} on the literal atoms, the call the
      uncached engine makes; the only lane that produces models, so
      every [Sat] verdict (and with it every witness) is byte-identical
      to the uncached engine's.  Its refutations are cached without a
      certificate; save drops them ({!Cachefile}).

    SAT misses pay both lanes.  They are rare by construction: a SAT
    leaf is a counterexample, so a property's search ends at its first
    one.

    Soundness: the certifying lane answers only UNSAT, and only with a
    certificate the standalone checker accepted; cache hits are
    revalidated (models re-evaluated, certificates replayed at load
    time).  A certified UNSAT entry is a hit only when the key matches
    and its core is a subset of the query's canonical atoms (one sorted
    merge), so even a key collision answers correctly.  Outcomes,
    witnesses and schema counts therefore equal the uncached engine's on
    every query the reference engine decides; only solver effort
    changes.  With [check] enabled, every certified refutation is
    re-proved on {!Lia.solve} and a mismatch raises {!Disagreement} (the
    checker's fail-soft quarantine contains it to one position); a
    certified model where {!Lia.solve} refutes raises it even without
    [check]. *)

(** Raised when two backends decide the same query differently — a
    solver bug by construction, never a cache/tampering effect (those
    degrade to misses). *)
exception Disagreement of string

type counters = {
  hits : int;  (** cache hits (zero-step answers) *)
  misses : int;  (** queries routed to a backend *)
  cross : int;  (** of [hits], entries first discharged by a different property *)
  w_interval : int;
      (** always 0: interval propagation no longer decides misses (the
          field stays for the checkpoint format) *)
  w_cooper : int;  (** always 0: Cooper QE no longer decides misses *)
  w_simplex : int;
      (** misses decided: refuted by the certifying simplex, or decided
          by the model lane *)
}

val zero_counters : counters
val add_counters : counters -> counters -> counters
val sub_counters : counters -> counters -> counters

type t

(** [create ?check cache] builds a portfolio over [cache].  [check]
    (default false) re-proves every certified refutation on {!Lia.solve}
    and raises {!Disagreement} on mismatch. *)
val create : ?check:bool -> Qcache.t -> t

val cache : t -> Qcache.t

(** Per-domain handle; [origin] names the property being discharged and
    is recorded in new cache entries (cross-property hits are classified
    against it). *)
type handle

val handle : origin:string -> t -> handle

(** Counters accumulated by this handle since creation. *)
val counters : handle -> counters

(** Flush the handle's buffered cache writes to the shared table. *)
val flush : handle -> unit

(** [solve ?steps ?max_steps ?stop h atoms] decides the conjunction
    like {!Lia.solve}, through the cache and both lanes.  [steps] counts
    the simplex calls of both lanes (a SAT miss counts both); hits and
    [check]'s re-proofs cost zero, so a hit saves exactly the effort the
    miss counted.  [max_steps] and [stop] bound each lane as in
    {!Lia.solve}. *)
val solve :
  ?steps:int ref ->
  ?max_steps:int ->
  ?stop:(unit -> bool) ->
  handle ->
  Atom.t list ->
  Lia.result
