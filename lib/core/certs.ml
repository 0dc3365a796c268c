(* Certificate emission for [--emit-certs]: every UNSAT verdict the
   checker produces — a discharged schema or a pruned prefix —
   is re-proved on the certifying LIA engine and written as one JSONL
   line that [holistic check-cert] replays against the standalone
   {!Smt.Certcheck}.  The certifying solver keeps its own step counter,
   so emission never perturbs the step totals the benchmark gates pin. *)

module J = Jsonc

type sink = {
  oc : out_channel;
  max_steps : int;
  cert_steps : int ref;  (* certifying-engine steps, kept out of checker stats *)
  mutable emitted : int;
  mutable failed : int;
}

let create ?(max_steps = 1_000_000) oc =
  { oc; max_steps; cert_steps = ref 0; emitted = 0; failed = 0 }

let emitted s = s.emitted
let failed s = s.failed
let cert_steps s = !(s.cert_steps)

let atoms_json atoms = J.List (List.map Smt.Certificate.atom_to_json atoms)

let write sink fields =
  output_string sink.oc (J.to_string (J.Obj fields));
  output_char sink.oc '\n'

(* Re-prove [atoms /\ (one cube per branch entry)] on the certifying
   engine, mirroring [solve_schema]'s case analysis: a refutation of the
   plain conjunction refutes the query whatever the pending branches, so
   a [Split] node is only built when the conjunction is satisfiable. *)
let rec certify sink atoms branches =
  match
    Smt.Lia.solve_cert ~steps:sink.cert_steps ~max_steps:sink.max_steps atoms
  with
  | Smt.Lia.Cert_unsat cert -> Some cert
  | Smt.Lia.Cert_unknown | Smt.Lia.Cert_timeout -> None
  | Smt.Lia.Cert_sat _ -> (
    match branches with
    | [] -> None
    | cubes :: rest ->
      let sub = List.map (fun cube -> certify sink (atoms @ cube) rest) cubes in
      if List.for_all Option.is_some sub then
        Some (Smt.Certificate.Split { cubes; certs = List.filter_map Fun.id sub })
      else None)

let emit_schema sink ~position (e : Encode.encoded) =
  match certify sink e.Encode.atoms e.Encode.branches with
  | Some cert ->
    sink.emitted <- sink.emitted + 1;
    write sink
      [
        ("kind", J.Str "schema");
        ("position", J.Int position);
        ("atoms", atoms_json e.Encode.atoms);
        ( "branches",
          J.List
            (List.map
               (fun alts -> J.List (List.map atoms_json alts))
               e.Encode.branches) );
        ("cert", Smt.Certificate.to_json cert);
      ]
  | None -> sink.failed <- sink.failed + 1

let emit_prefix sink ~position ~span atoms =
  match certify sink atoms [] with
  | Some cert ->
    sink.emitted <- sink.emitted + 1;
    write sink
      [
        ("kind", J.Str "prefix");
        ("position", J.Int position);
        ("span", J.Int span);
        ("atoms", atoms_json atoms);
        ("cert", Smt.Certificate.to_json cert);
      ]
  | None -> sink.failed <- sink.failed + 1

(* A static prune's certificate was already proved and validated when
   the invariant engine built it (see {!Analysis.Invariants}), so the
   certifying solver is not consulted — the pre-built certificate is
   written as-is. *)
let emit_static sink ~position ~span atoms cert =
  sink.emitted <- sink.emitted + 1;
  write sink
    [
      ("kind", J.Str "static");
      ("position", J.Int position);
      ("span", J.Int span);
      ("atoms", atoms_json atoms);
      ("cert", Smt.Certificate.to_json cert);
    ]

let flush sink = Stdlib.flush sink.oc
