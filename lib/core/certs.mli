(** Certificate emission sink for [--emit-certs].

    A sink re-proves each UNSAT verdict of a checker run (sequential
    whenever a sink is attached) on the certifying LIA engine
    ({!Smt.Lia.solve_cert}) and appends one canonical-JSON line per
    verdict to its channel:

    - [{"kind":"schema","position":p,"atoms":[...],"branches":[...],
       "cert":{...}}] — a schema discharged UNSAT at enumeration
      position [p]; the certificate refutes the full finalized query.
    - [{"kind":"prefix","position":p,"span":n,"atoms":[...],
       "cert":{...}}] — a pruned prefix covering the [n] enumeration
      positions starting at [p]; the certificate refutes the prefix
      conjunction, which every schema in the span extends.
    - [{"kind":"static","position":p,"span":n,"atoms":[...],
       "cert":{...}}] — a static prune by the invariant engine covering
      [n] positions starting at [p]; the certificate (a
      {!Smt.Certificate.Static} wrapper) refutes the parameter-only
      conjunction recorded in [atoms], which the refuted queries all
      entail.

    [holistic check-cert] replays these lines with the standalone
    {!Smt.Certcheck}.  The certifying engine's steps accrue in the
    sink's own counter, never in the checker's statistics, so emission
    cannot perturb the solver-step totals the benchmarks gate on. *)

type sink

val create : ?max_steps:int -> out_channel -> sink

(** Certify and write a schema discharged UNSAT.  A query the certifying
    engine cannot refute within the step budget counts as failed. *)
val emit_schema : sink -> position:int -> Encode.encoded -> unit

(** Certify and write a pruned prefix: [atoms] is the prefix conjunction
    (base included), [span] the number of enumeration positions the
    prune covered. *)
val emit_prefix : sink -> position:int -> span:int -> Smt.Atom.t list -> unit

(** Write a static prune: [atoms] is the refuted parameter-only
    conjunction, [cert] its pre-validated certificate (built and checked
    by the invariant engine — the certifying solver is not consulted). *)
val emit_static :
  sink -> position:int -> span:int -> Smt.Atom.t list -> Smt.Certificate.t -> unit

val emitted : sink -> int
val failed : sink -> int

(** Steps spent by the certifying engine across all emissions. *)
val cert_steps : sink -> int

val flush : sink -> unit
