module B = Numbers.Bigint
module J = Jsonc

(* Canonical fingerprint: canonicalize every atom (integer coefficients,
   GCD divided out, canonical equality sign — Atom.canonical), sort by
   the canonical total order and deduplicate, then digest the printed
   forms.  Atom.to_string over canonical atoms is deterministic (default
   "x<i>" names, coefficients in ascending variable order), so the key
   is a pure function of the canonical atom multiset. *)
let fingerprint atoms =
  let catoms =
    List.sort_uniq Atom.compare_canonical (List.map Atom.canonical atoms)
  in
  let key =
    Digest.to_hex (Digest.string (String.concat "\n" (List.map Atom.to_string catoms)))
  in
  (key, catoms)

type verdict =
  | Sat_model of { atoms : Atom.t list; model : (int * B.t) list }
  | Unsat_cert of Certificate.t option

type entry = { catoms : Atom.t list; verdict : verdict; origin : string }

(* ------------------------------------------------------------------- *)
(* Sharded shared table.  One mutex per shard keeps cross-domain
   contention low; entries are immutable once inserted, so a reader
   holding a returned entry never races a writer. *)

let shards = 16

type shard = { mutex : Mutex.t; tbl : (string, entry) Hashtbl.t }

type t = shard array

let create () =
  Array.init shards (fun _ -> { mutex = Mutex.create (); tbl = Hashtbl.create 64 })

let shard_of (t : t) key = t.(Hashtbl.hash key land (shards - 1))

let with_shard s f =
  Mutex.lock s.mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock s.mutex) (fun () -> f s.tbl)

let length t =
  Array.fold_left (fun acc s -> acc + with_shard s Hashtbl.length) 0 t

let find t key = with_shard (shard_of t key) (fun tbl -> Hashtbl.find_opt tbl key)

let add t key entry =
  with_shard (shard_of t key) (fun tbl ->
      if not (Hashtbl.mem tbl key) then Hashtbl.add tbl key entry)

let fold f t init =
  Array.fold_left
    (fun acc s -> with_shard s (fun tbl -> Hashtbl.fold f tbl acc))
    init t

(* ------------------------------------------------------------------- *)
(* Per-domain handle: a local memo of everything this domain has read or
   written, plus a write buffer flushed to the shared table every
   [flush_every] insertions.  Local reads take no lock at all. *)

module Local = struct
  let flush_every = 32

  type handle = {
    shared : t;
    local : (string, entry) Hashtbl.t;
    mutable buffer : (string * entry) list;
    mutable buffered : int;
  }

  let create shared =
    { shared; local = Hashtbl.create 256; buffer = []; buffered = 0 }

  let flush h =
    List.iter (fun (k, e) -> add h.shared k e) (List.rev h.buffer);
    h.buffer <- [];
    h.buffered <- 0

  let find h key =
    match Hashtbl.find_opt h.local key with
    | Some _ as r -> r
    | None -> (
      match find h.shared key with
      | Some e as r ->
        Hashtbl.replace h.local key e;
        r
      | None -> None)

  let add h key entry =
    if not (Hashtbl.mem h.local key) then begin
      Hashtbl.replace h.local key entry;
      h.buffer <- (key, entry) :: h.buffer;
      h.buffered <- h.buffered + 1;
      if h.buffered >= flush_every then flush h
    end
end

(* ------------------------------------------------------------------- *)
(* Validation: every persisted entry must be self-evidencing, so a
   tampered or stale cache degrades to misses, never to wrong verdicts.
   The checks deliberately recompute the fingerprint instead of trusting
   the recorded key. *)

(* Entries store canonical atom lists, so the cheap comparator applies. *)
let atoms_equal = List.equal Atom.equal_canonical

let validate key entry =
  let k', catoms' = fingerprint entry.catoms in
  if not (String.equal k' key) then Error "fingerprint mismatch"
  else if not (atoms_equal catoms' entry.catoms) then
    Error "atom list is not in canonical sorted form"
  else
    match entry.verdict with
    | Unsat_cert None -> Error "UNSAT entry carries no certificate"
    | Unsat_cert (Some cert) -> (
      match Certcheck.validate entry.catoms cert with
      | Ok () -> Ok ()
      | Error msg -> Error ("certificate rejected: " ^ msg))
    | Sat_model { atoms; model } ->
      let k'', _ = fingerprint atoms in
      if not (String.equal k'' key) then
        Error "SAT entry's literal atoms do not match the key"
      else if not (Lia.check_model atoms model) then
        Error "model does not satisfy the atoms"
      else Ok ()

(* ------------------------------------------------------------------- *)
(* Canonical-JSON codec.  Atoms and certificates reuse the Certificate
   codec; bigints are decimal strings, so the encoding is exact. *)

let model_to_json model =
  J.List
    (List.map (fun (x, v) -> J.List [ J.Int x; J.Str (B.to_string v) ]) model)

let model_of_json j =
  List.map
    (fun pair ->
      match J.to_list pair with
      | [ x; v ] -> (J.to_int x, B.of_string (J.to_str v))
      | _ -> raise (J.Parse_error "malformed model binding"))
    (J.to_list j)

let entry_to_json key entry =
  let base =
    [
      ("key", J.Str key);
      ("origin", J.Str entry.origin);
      ("atoms", J.List (List.map Certificate.atom_to_json entry.catoms));
    ]
  in
  match entry.verdict with
  | Unsat_cert cert ->
    J.Obj
      (base
      @ [
          ("verdict", J.Str "unsat");
          ("cert", match cert with Some c -> Certificate.to_json c | None -> J.Null);
        ])
  | Sat_model { atoms; model } ->
    J.Obj
      (base
      @ [
          ("verdict", J.Str "sat");
          ("qatoms", J.List (List.map Certificate.atom_to_json atoms));
          ("model", model_to_json model);
        ])

let entry_of_json j =
  let key = J.to_str (J.member "key" j) in
  let origin = J.to_str (J.member "origin" j) in
  let catoms = List.map Certificate.atom_of_json (J.to_list (J.member "atoms" j)) in
  let verdict =
    match J.to_str (J.member "verdict" j) with
    | "unsat" ->
      Unsat_cert
        (match J.member "cert" j with
         | J.Null -> None
         | cert -> Some (Certificate.of_json cert))
    | "sat" ->
      Sat_model
        {
          atoms = List.map Certificate.atom_of_json (J.to_list (J.member "qatoms" j));
          model = model_of_json (J.member "model" j);
        }
    | v -> raise (J.Parse_error ("unknown cache verdict " ^ v))
  in
  (key, { catoms; verdict; origin })
