(* The one-query-per-schema reference the checker's tests compare
   against: enumerate every schema in preorder ({!Holistic.Schema.enumerate}),
   encode it on its own ({!Holistic.Encode.encode}) and solve it — no
   sessions, pruning, static discharge, journal, certificates,
   quarantine, cache or pool.  The checker must report the same
   outcome, witness, schema count and slot total, with at most this
   oracle's solver steps. *)

module Ck = Holistic.Checker

type result = { outcome : Ck.outcome; schemas : int; slots : int; steps : int }

(* The conjunctive part first; only when it is satisfiable, the justice
   case split (one cube per branch entry).  [None]: the
   branch-and-bound budget ran dry. *)
let decide ~steps ~max_steps (e : Holistic.Encode.encoded) =
  let leaf atoms =
    match Smt.Lia.solve ~steps ~max_steps atoms with
    | Smt.Lia.Sat m -> Some (Some m)
    | Smt.Lia.Unsat -> Some None
    | Smt.Lia.Unknown | Smt.Lia.Timeout -> None
  in
  let rec go atoms = function
    | [] -> leaf atoms
    | alternatives :: rest ->
      let rec try_alts = function
        | [] -> Some None
        | cube :: others -> (
          match go (cube @ atoms) rest with Some None -> try_alts others | r -> r)
      in
      try_alts alternatives
  in
  match leaf e.atoms with
  | Some (Some _) when e.branches <> [] -> go e.atoms e.branches
  | r -> r

(* [verify ?max_schemas u spec]: budget aborts and solver-unknown aborts
   carry the checker's messages, so outcomes compare as strings. *)
let verify ?(max_schemas = Ck.default_limits.max_schemas) u spec =
  let max_steps = Ck.default_limits.lia_max_steps in
  let schemas = ref 0 and slots = ref 0 and steps = ref 0 in
  let outcome = ref Ck.Holds in
  ignore
    (Holistic.Schema.enumerate u spec ~on_schema:(fun schema ->
         if !schemas >= max_schemas then begin
           outcome :=
             Ck.Aborted
               (Printf.sprintf "schema budget exceeded (> %d schemas)" !schemas);
           false
         end
         else begin
           let e = Holistic.Encode.encode u spec schema in
           incr schemas;
           slots := !slots + e.n_slots;
           let verdict =
             match decide ~steps ~max_steps e with
             | None -> decide ~steps ~max_steps:(4 * max_steps) e
             | r -> r
           in
           match verdict with
           | Some None -> true
           | Some (Some m) ->
             outcome := Ck.Violated (Holistic.Witness.of_model u spec schema e m);
             false
           | None ->
             outcome := Ck.Aborted "solver returned unknown (branch-and-bound budget)";
             false
         end));
  { outcome = !outcome; schemas = !schemas; slots = !slots; steps = !steps }
