module J = Jsonc
module Qc = Smt.Qcache

(* Version 2: certified UNSAT entries hold their core, not the query. *)
let file_version = 2

type load_report = { cache : Qc.t; loaded : int; dropped : int }

let load ~path =
  let cache = Qc.create () in
  if not (Sys.file_exists path) then { cache; loaded = 0; dropped = 0 }
  else
    match
      let ic = open_in_bin path in
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () -> really_input_string ic (in_channel_length ic))
    with
    | exception Sys_error _ -> { cache; loaded = 0; dropped = 0 }
    | contents -> (
      match J.of_string (String.trim contents) with
      | exception J.Parse_error _ -> { cache; loaded = 0; dropped = 1 }
      | doc -> (
        match
          let v = J.to_int (J.member "version" doc) in
          if v <> file_version then
            raise (J.Parse_error (Printf.sprintf "unsupported cache version %d" v));
          J.to_list (J.member "entries" doc)
        with
        | exception J.Parse_error _ -> { cache; loaded = 0; dropped = 1 }
        | entries ->
          let loaded = ref 0 and dropped = ref 0 in
          List.iter
            (fun ej ->
              (* Malformed and invalid entries alike are dropped
                 silently: a tampered cache degrades to misses, never to
                 a wrong verdict or a failed run. *)
              match Qc.entry_of_json ej with
              | exception (J.Parse_error _ | Invalid_argument _ | Failure _) ->
                incr dropped
              | key, entry -> (
                match Qc.validate key entry with
                | Ok () ->
                  Qc.add cache key entry;
                  incr loaded
                | Error _ -> incr dropped))
            entries;
          { cache; loaded = !loaded; dropped = !dropped }))

type save_report = { written : int; uncertified : int }

(* Every certificate in the table was replayed when it entered it (at
   discharge or at load), so save only drops the entries without one. *)
let save ~path cache =
  let written = ref 0 and uncertified = ref 0 in
  let entries =
    Qc.fold
      (fun key entry acc ->
        match entry.Qc.verdict with
        | Qc.Unsat_uncertified _ ->
          incr uncertified;
          acc
        | Qc.Unsat_core _ | Qc.Sat_model _ ->
          incr written;
          (key, entry) :: acc)
      cache []
  in
  (* Canonical order (by key) so saving the same cache twice is
     byte-identical regardless of shard iteration order. *)
  let entries = List.sort (fun (a, _) (b, _) -> String.compare a b) entries in
  let doc =
    J.Obj
      [
        ("version", J.Int file_version);
        ("entries", J.List (List.map (fun (k, e) -> Qc.entry_to_json k e) entries));
      ]
  in
  Journal.atomic_write ~path (J.to_string doc ^ "\n");
  { written = !written; uncertified = !uncertified }
