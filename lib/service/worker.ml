module J = Jsonc

type failpoint =
  | Crash_every of int
  | Crash_at of int
  | Raise_at of int
  | Hang_at of int

let failpoint_of_string s =
  let num tag rest k =
    match int_of_string_opt rest with
    | Some n when n >= 0 -> Ok (k n)
    | _ -> Error (Printf.sprintf "%s expects a non-negative integer, got %S" tag rest)
  in
  match String.index_opt s ':' with
  | Some i -> (
    let tag = String.sub s 0 i in
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match tag with
    | "worker-crash" -> num tag rest (fun n -> Crash_every (max 1 n))
    | "worker-crash-at" -> num tag rest (fun n -> Crash_at n)
    | "worker-raise-at" -> num tag rest (fun n -> Raise_at n)
    | "worker-hang-at" -> num tag rest (fun n -> Hang_at n)
    | _ ->
      Error
        (Printf.sprintf
           "unknown failpoint %S (expected worker-crash:N, worker-crash-at:POS, \
            worker-raise-at:POS or worker-hang-at:POS)"
           s))
  | None -> Error (Printf.sprintf "malformed failpoint %S (expected TAG:N)" s)

let failpoint_to_string = function
  | Crash_every n -> Printf.sprintf "worker-crash:%d" n
  | Crash_at p -> Printf.sprintf "worker-crash-at:%d" p
  | Raise_at p -> Printf.sprintf "worker-raise-at:%d" p
  | Hang_at p -> Printf.sprintf "worker-hang-at:%d" p

type config = {
  cache_path : string option;
  ckpt_every : int;
  hb_interval : float;
  failpoints : failpoint list;
}

(* ------------------------------------------------------------------- *)
(* Shared discharge cache.  Each worker keeps one in-memory Qcache for
   its lifetime; with --cache it is seeded from the file at spawn and
   the union is written back -- load, fold the disk entries in (first
   write wins), save -- under a sibling lock file, so concurrent
   workers merging after their slices never lose each other's
   entries. *)

let with_lockfile path f =
  let lock = Unix.openfile (path ^ ".lock") [ O_CREAT; O_WRONLY ] 0o644 in
  Fun.protect
    ~finally:(fun () -> Unix.close lock)
    (fun () ->
      Unix.lockf lock F_LOCK 0;
      Fun.protect
        ~finally:(fun () -> try Unix.lockf lock F_ULOCK 0 with Unix.Unix_error _ -> ())
        f)

let merge_cache ~path cache =
  with_lockfile path (fun () ->
      let disk = (Holistic.Cachefile.load ~path).Holistic.Cachefile.cache in
      Smt.Qcache.fold (fun k e () -> Smt.Qcache.add cache k e) disk ();
      ignore (Holistic.Cachefile.save ~path cache))

(* ------------------------------------------------------------------- *)
(* Fault injection. *)

let crash_counter = ref 0

let kill_self () = Unix.kill (Unix.getpid ()) Sys.sigkill

let make_failpoint config (position : int Atomic.t) pos =
  Atomic.set position pos;
  List.iter
    (function
      | Crash_every n ->
        incr crash_counter;
        if !crash_counter mod n = 0 then kill_self ()
      | Crash_at p -> if pos = p then kill_self ()
      | Raise_at p ->
        if pos = p then failwith (Printf.sprintf "injected failure at position %d" p)
      | Hang_at p -> if pos = p then Unix.sleepf 3600.0)
    config.failpoints

(* ------------------------------------------------------------------- *)
(* Slice execution.  A slice [start, stop) runs as a stock checkpointed
   resume: seed a synthetic journal with [frontier = start] (zero
   totals, so the slice journal's totals are exactly the slice's
   statistics delta), resume from it with [max_schemas = stop].  The
   outcome classifies as:
   - budget abort        -> "more": every position of the slice is
                            UNSAT, the enumeration continues beyond;
   - Holds               -> "complete": the enumeration ended; the final
                            frontier is the end hint (= start when the
                            end lies at or before the slice);
   - Violated / other
     abort               -> "decided" at the absolute position
                            [frontier]; [schemas] mirrors the
                            sequential engine exactly
                            (slice-local count + start);
   - Partial             -> "partial": positions quarantined in-process
                            (a raising discharge crashed twice).

   A budget abort lands exactly on [stop]: a pruned subtree straddling
   the budget is split, its children wholly below [stop] accounted in
   closed form and the straddling one descended into, so the journal
   frontier of a "more" slice is [stop] and the coordinator's coverage
   spans stay aligned with its slice grid.  No other outcome leaves a
   frontier past [stop] either: the walk never passes [max_schemas]. *)

let is_budget_abort msg =
  String.length msg >= 22 && String.sub msg 0 22 = "schema budget exceeded"

let run_slice ~universes ~portfolio ~config ~position msg =
  let field name = J.member name msg in
  let job = J.to_int (field "job") in
  let model = J.to_str (field "model") in
  let spec_name = J.to_str (field "spec") in
  let start = J.to_int (field "start") in
  let stop = J.to_int (field "stop") in
  let ckpt = J.to_str (field "ckpt") in
  let base k extra =
    J.Obj
      ([
         ("t", J.Str "done");
         ("job", J.Int job);
         ("start", J.Int start);
         ("stop", J.Int stop);
         ("status", J.Str k);
       ]
      @ extra)
  in
  match Registry.find_specs model (Some spec_name) with
  | Error e | (exception Failure e) -> base "error" [ ("error", J.Str e) ]
  | Ok (_, ([] | _ :: _ :: _)) -> base "error" [ ("error", J.Str "ambiguous spec") ]
  | Ok (ta, [ spec ]) -> (
    let u =
      match Hashtbl.find_opt universes model with
      | Some u -> u
      | None ->
        let u = Holistic.Universe.build ta in
        Hashtbl.add universes model u;
        u
    in
    let fingerprint = Holistic.Journal.fingerprint ta spec in
    if not (Sys.file_exists ckpt) then
      Holistic.Journal.save ~path:ckpt
        { (Holistic.Journal.fresh ~fingerprint) with frontier = start };
    let limits =
      { Holistic.Checker.default_limits with jobs = 1; max_schemas = stop }
    in
    let r =
      Holistic.Checker.verify_with_universe ~limits ~checkpoint:ckpt
        ~checkpoint_every:config.ckpt_every ~resume:true
        ~failpoint:(make_failpoint config position) ?portfolio u spec
    in
    let slice_j =
      match Holistic.Journal.load ~path:ckpt with
      | Ok j -> j
      | Error _ -> { (Holistic.Journal.fresh ~fingerprint) with frontier = start }
    in
    let journal = ("journal", Holistic.Journal.to_json slice_j) in
    let schemas_abs = start + r.Holistic.Checker.stats.schemas_checked in
    match r.Holistic.Checker.outcome with
    | Holistic.Checker.Aborted reason when is_budget_abort reason ->
      base "more" [ ("frontier", J.Int slice_j.frontier); journal ]
    | Holistic.Checker.Holds ->
      base "complete" [ ("frontier", J.Int slice_j.frontier); journal ]
    | Holistic.Checker.Violated w ->
      base "decided"
        [
          ("frontier", J.Int slice_j.frontier);
          ("pos", J.Int slice_j.frontier);
          ("okind", J.Str "violated");
          ("witness", J.Str (Format.asprintf "%a" Holistic.Witness.pp w));
          ("schemas", J.Int schemas_abs);
          journal;
        ]
    | Holistic.Checker.Aborted reason ->
      base "decided"
        [
          ("frontier", J.Int slice_j.frontier);
          ("pos", J.Int slice_j.frontier);
          ("okind", J.Str "aborted");
          ("reason", J.Str reason);
          ("schemas", J.Int schemas_abs);
          journal;
        ]
    | Holistic.Checker.Partial { quarantined = _; reason } ->
      (* The holes travel in the journal's [quarantined] field. *)
      base "partial"
        [
          ("frontier", J.Int slice_j.frontier);
          ("reason", J.Str reason);
          journal;
        ])

(* ------------------------------------------------------------------- *)

let main config fd =
  Sys.set_signal Sys.sigterm Sys.Signal_default;
  Sys.set_signal Sys.sigint Sys.Signal_ignore;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Holistic.Checker.clear_interrupt ();
  let wmutex = Mutex.create () in
  let send json =
    try Lineio.send_locked wmutex fd json with Unix.Unix_error _ -> exit 0
  in
  let position = Atomic.make (-1) in
  (* The heartbeat thread reports the last preorder position touched;
     the coordinator's deadline is on that position *advancing*, so a
     hung discharge (not merely a long slice) is what gets killed.  A
     systhread, not a domain: a second domain — even one asleep in
     [sleepf] — drags every minor collection of the solver loop into a
     cross-domain barrier, measured at ~1.4x on discharge-heavy slices,
     while a thread on the same domain preempts via the tick thread at
     no cost. *)
  let _hb : Thread.t =
    Thread.create
      (fun () ->
        let rec loop () =
          Thread.delay config.hb_interval;
          send (J.Obj [ ("t", J.Str "hb"); ("pos", J.Int (Atomic.get position)) ]);
          loop ()
        in
        loop ())
      ()
  in
  let universes = Hashtbl.create 4 in
  let cache =
    Option.map
      (fun path -> (Holistic.Cachefile.load ~path).Holistic.Cachefile.cache)
      config.cache_path
  in
  let portfolio = Option.map (fun c -> Smt.Portfolio.create c) cache in
  let merged = ref (match cache with Some c -> Smt.Qcache.length c | None -> 0) in
  let reader = Lineio.reader fd in
  let handle line =
    match J.of_string line with
    | exception J.Parse_error _ -> ()
    | msg -> (
      match J.to_str (J.member "t" msg) with
      | "quit" -> exit 0
      | "slice" ->
        let reply =
          try run_slice ~universes ~portfolio ~config ~position msg
          with e ->
            J.Obj
              [
                ("t", J.Str "done");
                ("job", J.member "job" msg);
                ("start", J.member "start" msg);
                ("stop", J.member "stop" msg);
                ("status", J.Str "error");
                ("error", J.Str (Printexc.to_string e));
              ]
        in
        (match (config.cache_path, cache) with
        | Some path, Some c when Smt.Qcache.length c > !merged ->
          (try
             merge_cache ~path c;
             merged := Smt.Qcache.length c
           with Unix.Unix_error _ | Sys_error _ -> ())
        | _ -> ());
        Atomic.set position (-1);
        send reply
      | _ -> ())
  in
  let rec loop () =
    match Lineio.poll reader with
    | `Eof -> exit 0
    | `Lines lines ->
      List.iter handle lines;
      loop ()
  in
  loop ()
