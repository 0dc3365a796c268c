(** Schemas: the finite summaries of infinite families of runs that the
    checker enumerates (POPL'17).  A schema interleaves guard-unlock
    events with observation events; between two events lies a {e segment}
    in which the rules enabled by the current context fire, accelerated,
    in topological order. *)

type event =
  | Unlock of Universe.guard_id
  | Observe of int  (** index into the spec's observation list *)

type t = event list

(** {1 The enumeration tree}

    A node is a pair of a guard context [ctx] (a bitmask over
    {!Universe.guard_id}s) and a cut-point set [obs_mask] (a bitmask
    over observation indices); the root is [(0, 0)].  A [tree] fixes
    the child order that {!walk} traverses and memoises subtree sizes.
    It is not domain-safe: use one per domain. *)

type tree

val tree : Universe.t -> Ta.Spec.t -> tree

(** Whether the node is an emission point (its cut-point set is
    complete). *)
val is_schema : tree -> obs_mask:int -> bool

(** [children t ~ctx ~obs_mask] lists the node's children in preorder
    as [(edge event, child ctx, child obs_mask)]: the unobserved cut
    points first, then the unlock candidates. *)
val children : tree -> ctx:int -> obs_mask:int -> (event * int * int) list

(** [size t ~ctx ~obs_mask] is the number of schemas in the subtree
    rooted at the node (itself included), memoised per node and
    saturating at [max_int]; it depends on the node alone, not on the
    path that reached it. *)
val size : tree -> ctx:int -> obs_mask:int -> int

(** [walk u spec ?ctx ?obs_mask ~on_enter ~on_leave ~on_schema ()] is
    the DFS underlying {!enumerate}, with the tree structure exposed:
    [on_enter ev] fires when the walk descends the edge labelled [ev]
    and may answer [`Prune] to skip the entire subtree (no [on_leave],
    no [on_schema] calls for it); [on_leave ev] fires when the walk
    backtracks over an edge it descended; [on_schema ()] fires at every
    emission point, in the same preorder as {!enumerate} (the events of
    the current prefix are exactly those entered and not yet left), and
    answers whether to continue.  Returns [true] when the walk ran to
    completion.  [ctx]/[obs_mask] (default the root) start the walk at
    an interior node — used to traverse one subtree, e.g. a worker's
    partition of the tree. *)
val walk :
  Universe.t ->
  Ta.Spec.t ->
  ?ctx:int ->
  ?obs_mask:int ->
  on_enter:(event -> [ `Descend | `Prune ]) ->
  on_leave:(event -> unit) ->
  on_schema:(unit -> bool) ->
  unit ->
  bool

(** [enumerate u spec ~on_schema] drives a DFS over admissible schemas,
    calling [on_schema] for each.  [on_schema] returns [true] to continue
    the enumeration, [false] to abort it.  Returns [true] when the
    enumeration ran to completion.

    For safety specs, a schema is emitted when its last event completes
    the observation set; for liveness specs, every node with a complete
    observation set is emitted (the run may stabilize in any context). *)
val enumerate : Universe.t -> Ta.Spec.t -> on_schema:(t -> bool) -> bool

(** [count u spec ~limit] counts schemas, up to [limit]. *)
val count : Universe.t -> Ta.Spec.t -> limit:int -> [ `Exactly of int | `More_than of int ]

val pp : Universe.t -> Ta.Spec.t -> Format.formatter -> t -> unit
