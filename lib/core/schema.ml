type event = Unlock of Universe.guard_id | Observe of int

type t = event list

exception Stop

(* Observation indices that need explicit cut-points; the other shapes
   are encoded on the final state (see Obs). *)
let cut_point_indices (spec : Ta.Spec.t) =
  List.concat
    (List.mapi
       (fun i (_, c) -> if Obs.classify c = Obs.Cut_point then [ i ] else [])
       spec.observations)

let full_mask (spec : Ta.Spec.t) =
  List.fold_left (fun acc i -> acc lor (1 lsl i)) 0 (cut_point_indices spec)

(* The enumeration tree: a node is a (context, cut-point set) pair, its
   children are the unobserved cut points then the unlock candidates, in
   that order.  [walk] and the closed-form counters share this one
   definition of the preorder. *)
type tree = {
  u : Universe.t;
  cut_obs : int list;
  full : int;
  sizes : (int * int, int) Hashtbl.t;  (* (ctx, obs_mask) -> schemas below *)
}

let tree u spec =
  { u; cut_obs = cut_point_indices spec; full = full_mask spec; sizes = Hashtbl.create 16 }

(* Every node with a complete cut-point set is a schema: the run may end
   (safety) or stabilize (liveness) in any context. *)
let is_schema t ~obs_mask = obs_mask = t.full

let children t ~ctx ~obs_mask =
  List.filter_map
    (fun i ->
      if obs_mask land (1 lsl i) = 0 then Some (Observe i, ctx, obs_mask lor (1 lsl i))
      else None)
    t.cut_obs
  @ List.map
      (fun g -> (Unlock g, ctx lor (1 lsl g), obs_mask))
      (Universe.unlock_candidates t.u ctx)

(* Saturating: a subtree too large to count exactly is [max_int]. *)
let sat_add a b = if a > max_int - b then max_int else a + b

let rec size t ~ctx ~obs_mask =
  match Hashtbl.find_opt t.sizes (ctx, obs_mask) with
  | Some n -> n
  | None ->
    let n =
      List.fold_left
        (fun acc (_, ctx, obs_mask) -> sat_add acc (size t ~ctx ~obs_mask))
        (if is_schema t ~obs_mask then 1 else 0)
        (children t ~ctx ~obs_mask)
    in
    Hashtbl.add t.sizes (ctx, obs_mask) n;
    n

let walk u (spec : Ta.Spec.t) ?(ctx = 0) ?(obs_mask = 0) ~on_enter ~on_leave
    ~on_schema () =
  let t = tree u spec in
  let rec go ctx obs_mask =
    if is_schema t ~obs_mask && not (on_schema ()) then raise Stop;
    List.iter (fun (ev, ctx, obs_mask) -> visit ev ctx obs_mask) (children t ~ctx ~obs_mask)
  and visit ev ctx obs_mask =
    match on_enter ev with
    | `Prune -> ()
    | `Descend ->
      (match go ctx obs_mask with
       | () -> on_leave ev
       | exception e ->
         on_leave ev;
         raise e)
  in
  match go ctx obs_mask with () -> true | exception Stop -> false

let enumerate u (spec : Ta.Spec.t) ~on_schema =
  let rev_events = ref [] in
  walk u spec
    ~on_enter:(fun ev ->
      rev_events := ev :: !rev_events;
      `Descend)
    ~on_leave:(fun _ -> rev_events := List.tl !rev_events)
    ~on_schema:(fun () -> on_schema (List.rev !rev_events))
    ()

let count u spec ~limit =
  let n = ref 0 in
  let complete =
    enumerate u spec ~on_schema:(fun _ ->
        incr n;
        !n < limit)
  in
  if complete then `Exactly !n else `More_than !n

let pp u (spec : Ta.Spec.t) fmt schema =
  let obs_name i = fst (List.nth spec.observations i) in
  Format.fprintf fmt "@[<hov 2>";
  if schema = [] then Format.fprintf fmt "(empty: initial context only)";
  List.iteri
    (fun i ev ->
      if i > 0 then Format.fprintf fmt " ;@ ";
      match ev with
      | Unlock g ->
        Format.fprintf fmt "unlock{%s}" (Ta.Guard.atom_to_string (Universe.atom u g))
      | Observe i -> Format.fprintf fmt "observe{%s}" (obs_name i))
    schema;
  Format.fprintf fmt "@]"
