(** The guard universe of a threshold automaton: the deduplicated guard
    atoms of all rules, together with the two relations that drive schema
    enumeration (paper, Section 6 / POPL'17):

    - the {e implication order}: [g] precedes [h] when, under the
      resilience condition (and non-negative shared variables), [h] true
      implies [g] true — so [h] can never unlock strictly before [g];
    - {e producibility}: a guard with a necessarily-positive threshold can
      only unlock after some rule that increments one of its variables has
      become firable. *)

type guard_id = int

type t

(** [build ta] computes the universe; runs one small LIA query per pair
    of guards.  The two pruning relations can be disabled individually
    for ablation studies (both remain sound to disable: they only shrink
    the enumeration).
    @raise Invalid_argument when the automaton has more than 62 unique
    guard atoms: enumeration contexts are bitmasks in a 63-bit OCaml
    integer, and one more atom would silently overflow into the sign
    bit. *)
val build :
  ?use_implication_order:bool -> ?use_producibility:bool -> Ta.Automaton.t -> t

val automaton : t -> Ta.Automaton.t
val size : t -> int
val atom : t -> guard_id -> Ta.Guard.atom

(** [ids u] is [0 .. size-1]. *)
val ids : t -> guard_id list

(** [guard_ids u g] maps a rule guard (conjunction) to universe ids. *)
val guard_ids : t -> Ta.Guard.t -> guard_id list

(** [must_precede u g h] is true when [h => g] (so [g] unlocks no later
    than [h]). *)
val must_precede : t -> guard_id -> guard_id -> bool

(** [enabled_rules u ctx] lists the rules whose guard atoms are all in
    the context [ctx] (a bitmask over guard ids), in topological order. *)
val enabled_rules : t -> int -> Ta.Automaton.rule list

(** {1 Location-indexed view}

    What the slot simulation ({!Encode.Sim}) needs, without names:
    locations are numbered [0 .. n_locations-1] in the automaton's
    declaration order, and rules are numbered moves between them. *)

val n_locations : t -> int

val location_index : t -> string -> int option

(** [moves u] lists every rule in topological order as
    [(guard mask, source, target)]: the rule is enabled in context
    [ctx] iff [mask land lnot ctx = 0] (as in {!enabled_rules}). *)
val moves : t -> (int * int * int) array

(** [unlock_candidates u ctx] lists the guards outside [ctx] that respect
    the implication order and producibility under [ctx]. *)
val unlock_candidates : t -> int -> guard_id list

(** [justice_atom_status u ctx a] decides a justice condition atom [a]
    (which need not belong to the universe) in the final context [ctx],
    using the pinning of locked guards and the truth of unlocked ones:
    [`True] when some unlocked guard implies [a], [`False] when [a]
    implies some still-locked guard, [`Unknown] otherwise. *)
val justice_atom_status :
  t -> int -> Ta.Guard.atom -> [ `True | `False | `Unknown ]
