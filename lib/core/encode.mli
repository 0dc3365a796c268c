(** Encoding of one schema as a linear-arithmetic satisfiability query.

    The query is satisfiable iff some run of the counter system follows
    the schema and exhibits the spec's violation pattern (see
    {!Ta.Spec}).  Variables: the parameters, the initial counters of the
    initial locations, and one acceleration factor per (segment, enabled
    rule) slot. *)

type var_kind =
  | Param of string
  | Init_counter of string
  | Factor of int * string  (** segment index, rule name *)

type encoded = {
  vars : (int * var_kind) list;  (** SMT variable id -> meaning *)
  n_slots : int;  (** number of rule slots: the schema "length" *)
  atoms : Smt.Atom.t list;  (** the conjunctive part of the query *)
  branches : Smt.Atom.t list list list;
      (** factored justice case-splits: for each entry, at least one of
          the alternative cubes (conjunctions of atoms) must hold in
          addition to [atoms]; empty for safety specs and for liveness
          schemas whose final context decides every justice condition *)
}

val encode : Universe.t -> Ta.Spec.t -> Schema.t -> encoded

(** {1 Incremental encoding}

    The flat encoding is a left fold over the schema's events: the atoms
    and variable numbering produced for a prefix depend on the prefix
    alone.  A session exposes that structure to the incremental checker:
    push events along the enumeration DFS, pop to backtrack (O(1) — the
    underlying snapshots are immutable), finalize to complete the current
    prefix into a full query.  [encode] itself is implemented as
    [start] + [push_event]* + [finalize], so the two paths agree by
    construction. *)

type session

(** [start u spec] opens a session at the empty prefix.  {!base_atoms}
    are the prefix-independent constraints: resilience, non-negativity,
    initial configuration, and the spec's initial condition. *)
val start : Universe.t -> Ta.Spec.t -> session

val base_atoms : session -> Smt.Atom.t list

(** All atoms of the current prefix, base included, in flat-encoding
    order: the conjunction whose satisfiability bounds every extension
    of this prefix. *)
val prefix_atoms : session -> Smt.Atom.t list

(** [push_event s ev] extends the prefix with [ev] and returns the atom
    delta this event contributes: the preceding segment's slot atoms
    followed by the event's own constraint (guard truth for an unlock,
    the observed condition for an observe). *)
val push_event : session -> Schema.event -> Smt.Atom.t list

(** Undo the most recent {!push_event}.
    @raise Invalid_argument at the empty prefix. *)
val pop_event : session -> unit

(** Complete the current prefix into the full violation query — trailing
    segment, stability pinning, final-state observations, fairness and
    justice constraints, final condition.  The session is not modified:
    everything past the prefix is emitted on a copy, which is what makes
    prefix unsatisfiability monotone down the enumeration tree. *)
val finalize : session -> encoded

(** {1 Slot simulation}

    Per-schema slot counts without building any linear expressions, used
    to account schemas skipped by subtree pruning with the slot counts
    {!encode} would have reported.  Mirrors the encoder's slot-skip
    rule exactly: a location's counter is the zero expression iff it is
    neither an unblocked initial location nor the target of an executed
    slot (counters only ever gain fresh factor terms, so non-zeroness is
    monotone along a prefix). *)

module Sim : sig
  type t

  (** The empty prefix, without opening a session (no SMT variables are
      allocated).  [push_event]-folding a schema from here reports the
      same slot count the flat encoder would. *)
  val start : Universe.t -> Ta.Spec.t -> t

  (** Snapshot the slot-relevant state (context, populated locations,
      slots so far) of the session's current prefix. *)
  val of_session : session -> t

  val push_event : t -> Schema.event -> t

  (** Slots of the schema ending at the current prefix: prefix slots
      plus the trailing segment's. *)
  val leaf_slots : t -> int

  (** {2 Closed-form subtree totals} *)

  (** Memoised slot sums over the subtrees of one {!Schema.tree}.  The
      slots a subtree's leaves add past its root depend only on the
      root's context, cut-point set and populated locations, so each
      such triple is folded once.  Not domain-safe: use one per domain
      (and per run: the memo grows with the subtrees it has counted). *)
  type memo

  val memo : Schema.tree -> memo

  (** [subtree_slots m sim ~obs_mask] is the sum of {!leaf_slots} over
      the schemas of the subtree rooted at the prefix [sim] with
      cut-point set [obs_mask] — [Schema.size] of them — saturating at
      [max_int].  [sim] must belong to the memo's universe and spec. *)
  val subtree_slots : memo -> t -> obs_mask:int -> int
end
