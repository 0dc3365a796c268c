(** Persistent discharge cache: load/save a {!Smt.Qcache} as one
    canonical-JSON document, written atomically through
    {!Journal.atomic_write} (same crash-safety contract as the
    checkpoint journal — a crash mid-save leaves the previous cache
    intact, never a torn file).

    Trust model: a cache file is {e advisory}, never load-bearing.
    Every entry is re-validated on load ({!Smt.Qcache.validate}: a
    certified UNSAT entry's certificate is replayed by the standalone
    checker against the entry's core, and the core must be sorted and
    deduplicated; a SAT entry's fingerprint is recomputed and
    its model re-evaluated); entries that fail — tampered, truncated,
    stale, or produced by a different atom encoding — are silently
    dropped, degrading to cache misses.  A file of another format
    version is refused as a whole (loaded 0, dropped 1), so the run
    starts cold.  An UNSAT entry stores only the atoms its certificate
    cites, not the query: the portfolio serves it to a query only when
    every core atom is among the query's canonical atoms, and a query
    that contains a refuted core is refuted.  A wrong or colliding key
    can therefore cost a miss, never a wrong verdict.  Save writes only
    entries that carry evidence: every certificate in the table was
    replayed by the standalone checker when it entered it (at
    discharge, by {!Smt.Portfolio}'s certifying lane, or here at load),
    so it is written as is.  UNSAT entries without a certificate —
    decided by the portfolio's model lane because the certifying lane
    ran dry or its certificate failed the replay — are dropped, not
    proved again: the certifying engine is deterministic, and it has
    already failed on them at the discharge's budget.  No file ever
    holds an unvalidated certificate, so a wrong verdict cannot enter a
    run through the file: only correctly-certified work can be
    reused. *)

type load_report = {
  cache : Smt.Qcache.t;
  loaded : int;  (** entries accepted *)
  dropped : int;  (** entries rejected by validation (or malformed) *)
}

(** [load ~path] reads a cache file.  A missing file is an empty cache
    (cold start); an unreadable or non-JSON file is an empty cache with
    every entry counted dropped. *)
val load : path:string -> load_report

type save_report = {
  written : int;
  uncertified : int;  (** UNSAT entries dropped: they carry no certificate *)
}

(** [save ~path cache] writes every SAT entry and every certified UNSAT
    entry, in key order (saving the same cache twice is
    byte-identical). *)
val save : path:string -> Smt.Qcache.t -> save_report
