module B = Numbers.Bigint
module J = Jsonc

(* Canonical fingerprint: canonicalize every atom (integer coefficients,
   GCD divided out, canonical equality sign — Atom.canonical), sort by
   the canonical total order and deduplicate, then digest a compact
   serialization of the list.  Each atom is written as its relation
   tag, its term count, each term's variable id and coefficient, and
   its constant; every field has a fixed width or a tag, so the
   encoding is prefix-free and the key is a pure function of the
   canonical atom set, stable across processes. *)
let add_int buf n = Buffer.add_int64_le buf (Int64.of_int n)

let add_bigint buf b =
  match B.to_int b with
  | Some n ->
    Buffer.add_char buf 'i';
    add_int buf n
  | None ->
    let s = B.to_string b in
    Buffer.add_char buf 'b';
    add_int buf (String.length s);
    Buffer.add_string buf s

(* Canonical atoms have integral coefficients and constants. *)
let add_q buf q = add_bigint buf (Numbers.Rational.to_bigint q)

let add_atom buf (a : Atom.t) =
  Buffer.add_char buf (match a.rel with Atom.Le -> 'L' | Atom.Lt -> 'T' | Atom.Eq -> 'E');
  let terms = Linexpr.terms a.expr in
  add_int buf (List.length terms);
  List.iter
    (fun (c, v) ->
      add_int buf v;
      add_q buf c)
    terms;
  add_q buf (Linexpr.constant a.expr)

let fingerprint atoms =
  let catoms =
    List.sort_uniq Atom.compare_canonical (List.map Atom.canonical atoms)
  in
  let buf = Buffer.create 4096 in
  List.iter (add_atom buf) catoms;
  (Digest.to_hex (Digest.string (Buffer.contents buf)), catoms)

type verdict =
  | Sat_model of { atoms : Atom.t list; model : (int * B.t) list }
  | Unsat_core of { core : Atom.t list; cert : Certificate.t }
  | Unsat_uncertified of Atom.t list

type entry = { verdict : verdict; origin : string }

(* Strictly ascending under the canonical order. *)
let rec sorted_uniq = function
  | a :: (b :: _ as rest) -> Atom.compare_canonical a b < 0 && sorted_uniq rest
  | [ _ ] | [] -> true

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
   A SAT entry recomputes its fingerprint instead of trusting the
   recorded key.  An UNSAT entry's key is only an index: its evidence
   is the certificate replayed against its core, and the portfolio
   serves it only to queries whose canonical atoms contain the core. *)

let validate key entry =
  match entry.verdict with
  | Unsat_uncertified _ -> Error "UNSAT entry carries no certificate"
  | Unsat_core { core; cert } ->
    if not (sorted_uniq core) then Error "core is not sorted and deduplicated"
    else (
      match Certcheck.validate core cert with
      | Ok () -> Ok ()
      | Error msg -> Error ("certificate rejected: " ^ msg))
  | Sat_model { atoms; model } ->
    let k, _ = fingerprint atoms in
    if not (String.equal k key) then
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

let atoms_to_json atoms = J.List (List.map Certificate.atom_to_json atoms)
let atoms_of_json j = List.map Certificate.atom_of_json (J.to_list j)

let entry_to_json key entry =
  let base = [ ("key", J.Str key); ("origin", J.Str entry.origin) ] in
  match entry.verdict with
  | Unsat_core { core; cert } ->
    J.Obj
      (base
      @ [
          ("verdict", J.Str "unsat");
          ("core", atoms_to_json core);
          ("cert", Certificate.to_json cert);
        ])
  | Sat_model { atoms; model } ->
    J.Obj
      (base
      @ [
          ("verdict", J.Str "sat");
          ("qatoms", atoms_to_json atoms);
          ("model", model_to_json model);
        ])
  | Unsat_uncertified _ ->
    invalid_arg "Qcache.entry_to_json: a certificate-less entry is never persisted"

let entry_of_json j =
  let key = J.to_str (J.member "key" j) in
  let origin = J.to_str (J.member "origin" j) in
  let verdict =
    match J.to_str (J.member "verdict" j) with
    | "unsat" ->
      Unsat_core
        {
          core = atoms_of_json (J.member "core" j);
          cert = Certificate.of_json (J.member "cert" j);
        }
    | "sat" ->
      Sat_model
        {
          atoms = atoms_of_json (J.member "qatoms" j);
          model = model_of_json (J.member "model" j);
        }
    | v -> raise (J.Parse_error ("unknown cache verdict " ^ v))
  in
  (key, { verdict; origin })
