(* The repository benchmark: one workload per run, closed loop, one
   process.  See README.md for why each workload exists and what every
   metric means; run.py builds this program and passes it the CLI whose
   daemon the traced table2 run drives.

   The last line of standard output is the result:
   {"correct", "attempted", "failed", "metrics"}.  The end-to-end metrics
   come from an untraced run (--trace 0); the per-layer metrics from a
   traced run (--trace 1), which alternates untraced and traced passes
   so that it can also report the tracing overhead. *)

module E = Expected
module J = Jobs

let usage () =
  prerr_endline
    "usage: main.exe --workload table2|zoo-sweep|cache-cold-warm --seed N \
     --seconds S --trace 0|1 --cli PATH --out DIR [--commit C] [--source-digest D] \
     [--flip JOB-ID] [--inject-failure]";
  exit 2

let args = Array.to_list Sys.argv |> List.tl

let flag name =
  let rec go = function
    | k :: v :: _ when k = name -> Some v
    | _ :: rest -> go rest
    | [] -> None
  in
  go args

let required name = match flag name with Some v -> v | None -> usage ()

let int_flag name =
  match int_of_string_opt (required name) with Some n -> n | None -> usage ()

let workload = required "--workload"
let seed = int_flag "--seed"
let seconds = float_of_int (int_flag "--seconds")

let traced =
  match required "--trace" with "0" -> false | "1" -> true | _ -> usage ()

let cli = required "--cli"
let out_dir = required "--out"
let flip = flag "--flip"
let inject_failure = List.mem "--inject-failure" args

(* Heavy Table 2 rows run their first [heavy_cap] preorder positions: a
   full row takes 39-47 s, longer than a run measures. *)
let heavy_cap = 64
let cache_cap = 32
let setups = 9

(* Set-ups timed back to back in one set-up sample. *)
let setup_reps = 3

let with_cap cap (r : E.row) =
  (r, if r.E.model = "simplified" && List.mem r.E.spec [ "Inv1_0"; "SRound-Term" ] then Some cap else None)

let apply_flip rows =
  match flip with
  | None -> rows
  | Some id ->
    if not (List.exists (fun ((r : E.row), _) -> E.id r = id) rows) then begin
      prerr_endline ("--flip: no job " ^ id ^ " in workload " ^ workload);
      exit 2
    end;
    List.map (fun ((r : E.row), cap) -> ((if E.id r = id then E.flip r else r), cap)) rows

(* ------------------------------------------------------------------ *)
(* Statistics.                                                          *)

let sorted l = List.sort compare l

(* Nearest-rank percentile. *)
let percentile p l =
  match sorted l with
  | [] -> nan
  | s ->
    let n = List.length s in
    List.nth s (max 0 (min (n - 1) (int_of_float (Float.ceil (p *. float_of_int n)) - 1)))

let median l =
  match sorted l with
  | [] -> nan
  | s ->
    let n = List.length s in
    if n mod 2 = 1 then List.nth s (n / 2)
    else (List.nth s ((n / 2) - 1) +. List.nth s (n / 2)) /. 2.

let shuffle rng l =
  let a = Array.of_list l in
  for i = Array.length a - 1 downto 1 do
    let k = Random.State.int rng (i + 1) in
    let x = a.(i) in
    a.(i) <- a.(k);
    a.(k) <- x
  done;
  Array.to_list a

let peak_rss_mb () =
  In_channel.with_open_text "/proc/self/status" In_channel.input_all
  |> String.split_on_char '\n'
  |> List.find_map (fun l ->
         match String.split_on_char ':' l with
         | [ "VmHWM"; v ] -> Scanf.sscanf_opt (String.trim v) "%d kB" (fun kb -> float_of_int kb /. 1024.)
         | _ -> None)
  |> Option.value ~default:nan

let cpu_self () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

let cpu_children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* ------------------------------------------------------------------ *)
(* Passes.                                                              *)

type pass = {
  wall : float;  (** the job path: what an untraced pass measures *)
  job_times : (string * float) list;  (** time to verdict of every job, by job id *)
  layers : (string * float) list;
  speed : float;  (** mean of the host-speed probes on either side of the pass *)
}

let snapshot () = Hashtbl.fold (fun k v acc -> (k, v) :: acc) J.acc []

let gc_layers f =
  let g0 = Gc.quick_stat () in
  let r = f () in
  let g1 = Gc.quick_stat () in
  J.add "gc.minor_words" (g1.Gc.minor_words -. g0.Gc.minor_words);
  J.add "gc.major_words" (g1.Gc.major_words -. g0.Gc.major_words);
  J.addi "gc.major_collections" (g1.Gc.major_collections - g0.Gc.major_collections);
  r

(* Replays of one traced pass: the self-times of the layer spans beneath
   each [replay] span (encode, fingerprint, solve) must sum to within 5%
   of the replays' wall clock.  The root's own self-time (the schema walk
   and the loop around the calls) is what no layer accounts for, so it is
   left out. *)
let replay_coverage replays =
  let walls = List.fold_left (fun a (r : J.replayed) -> a +. r.J.wall) 0. replays in
  let self =
    List.fold_left
      (fun a (r : J.replayed) ->
        match r.J.root with
        | Some root ->
          List.fold_left
            (fun a ((s : Tracer.span), t) -> if s.Tracer.id = root.Tracer.id then a else a +. t)
            a
            (Tracer.self_times (Tracer.subtree !Tracer.recorded root))
        | None -> a)
      0. replays
  in
  if walls > 0. then begin
    J.add "replay.wall_s" walls;
    J.add "replay.self_sum_s" self;
    J.record "replay layer coverage" ~expected:"layer self-times within 5% of wall"
      (Float.abs (self -. walls) <= 0.05 *. walls)
      (Printf.sprintf "%.4f s of %.4f s" self walls)
  end

let inprocess_pass ~rng ~shuffled ~fingerprint jobs =
  let order = if shuffled then shuffle rng jobs else jobs in
  let t0 = Tracer.now () in
  let results = List.map (fun j -> (j, J.run j)) order in
  let wall = Tracer.now () -. t0 in
  if !Tracer.enabled then
    replay_coverage
      (List.filter_map (fun (j, (_, obs)) -> J.analyse ~fingerprint j obs) results);
  { wall; job_times = List.map (fun (j, (dt, _)) -> (J.id j, dt)) results; layers = []; speed = nan }

let cache_path = Filename.concat out_dir (Printf.sprintf "cache-%d.json" (Unix.getpid ()))

let cache_pass jobs =
  let file_bytes () = float_of_int (try (Unix.stat cache_path).Unix.st_size with Unix.Unix_error _ -> 0) in
  let save pf =
    let r = J.timed "cachefile.save_s" (fun () -> Holistic.Cachefile.save ~path:cache_path (Smt.Portfolio.cache pf)) in
    J.addi "cachefile.written" r.Holistic.Cachefile.written;
    J.addi "cachefile.uncertified" r.Holistic.Cachefile.uncertified
  in
  let run_all pf = List.map (fun j -> J.run ~portfolio:pf j) jobs in
  (* Cold: an empty cache; discharge, certify and save. *)
  (try Sys.remove cache_path with Sys_error _ -> ());
  let t0 = Tracer.now () in
  let cold_jobs, cold =
    Tracer.span "cache.cold" (fun () ->
        let pf = Smt.Portfolio.create (Smt.Qcache.create ()) in
        let results = run_all pf in
        save pf;
        (results, Tracer.now () -. t0))
  in
  J.add "cachefile.bytes" (file_bytes ());
  (* Warm: load and validate the file, answer from hits, save again. *)
  let t1 = Tracer.now () in
  let warm_jobs, warm =
    Tracer.span "cache.warm" (fun () ->
        let rep = J.timed "cachefile.load_s" (fun () -> Holistic.Cachefile.load ~path:cache_path) in
        J.addi "cachefile.loaded" rep.Holistic.Cachefile.loaded;
        J.addi "cachefile.dropped" rep.Holistic.Cachefile.dropped;
        J.record "cache file reload" ~expected:"no entry dropped"
          (rep.Holistic.Cachefile.dropped = 0)
          (Printf.sprintf "%d dropped" rep.Holistic.Cachefile.dropped);
        let pf = Smt.Portfolio.create rep.Holistic.Cachefile.cache in
        let results = run_all pf in
        save pf;
        (results, Tracer.now () -. t1))
  in
  J.add "cold_s" cold;
  J.add "warm_s" warm;
  if !Tracer.enabled then
    replay_coverage
      (List.map2 (fun j (_, obs) -> J.analyse ~fingerprint:true j obs) jobs cold_jobs
      |> List.filter_map Fun.id);
  {
    wall = cold +. warm;
    job_times =
      List.map2 (fun j (dt, _) -> (J.id j ^ " cold", dt)) jobs cold_jobs
      @ List.map2 (fun j (dt, _) -> (J.id j ^ " warm", dt)) jobs warm_jobs;
    layers = [];
    speed = nan;
  }

(* ------------------------------------------------------------------ *)
(* Pool and daemon (traced table2 only).                                *)

(* The daemon's private state directory. *)
let daemon_root = Filename.concat out_dir (Printf.sprintf "daemon-%d" (Unix.getpid ()))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let spawn_daemon () =
  let state = daemon_root in
  let d, ready = Tracer.span "service.spawn" (fun () -> Daemon.spawn ~cli ~state) in
  J.add "service.spawn_s" ready;
  Printf.eprintf "daemon pid %d workers [%s] state %s\n%!" d.Daemon.pid
    (String.concat "," (List.map string_of_int d.Daemon.workers))
    state;
  d

(* The heavy job in-process on two domains (the Pool), then through the
   daemon. *)
let heavy_phase ~daemon heavy =
  let cpu0 = cpu_self () in
  let t0 = Tracer.now () in
  let r = Tracer.span "pool.run" (fun () -> J.verify ~jobs:2 heavy) in
  let pool = Tracer.now () -. t0 in
  J.check heavy (J.observe r);
  J.add "pool_j2_s" pool;
  J.add "pool.cpu_s" (cpu_self () -. cpu0);
  let busy =
    List.fold_left (fun a w -> a +. w.Holistic.Checker.busy_time) 0. r.Holistic.Checker.stats.workers
  in
  J.add "pool.busy_s" busy;
  J.add "pool.utilisation" (busy /. (2. *. pool));
  (* The same job through the daemon. *)
  let d0 = Tracer.now () in
  let row =
    Tracer.span "service.job" (fun () ->
        Daemon.run_job daemon ~model:heavy.J.row.E.model ~spec:heavy.J.row.E.spec
          ?max_schemas:heavy.J.cap ())
  in
  J.add "daemon_heavy_s" (Tracer.now () -. d0);
  J.check heavy (J.observe_row row);
  if inject_failure then begin
    (* Leave the workers busy, then fail: the run must still reap them. *)
    (match Service.Client.connect ~retries:0 ~state_dir:daemon.Daemon.state () with
     | Ok c ->
       ignore (Service.Client.submit c ~model:"simplified" ~spec:"Inv1_0" ());
       Service.Client.close c
     | Error _ -> ());
    Unix.sleepf 0.3;
    failwith "injected failure"
  end

(* One round of the zoo-sweep mix through the daemon, at most two jobs
   outstanding, then the same jobs in-process for the daemon's overhead
   per job. *)
let stream_pass ~rng ~daemon stream =
  let order = Array.of_list (shuffle rng stream) in
  let done_ =
    Tracer.span "service.stream" (fun () ->
        Daemon.stream daemon ~window:2
          (Array.to_list (Array.map (fun ((r : E.row), cap) -> (r.E.model, r.E.spec, cap)) order)))
  in
  List.iter
    (fun s ->
      let r, cap = order.(s.Daemon.s_index) in
      J.check_row r cap (J.observe_row s.Daemon.s_row))
    done_;
  J.add "service.submit_rtt_s" (median (List.map (fun s -> s.Daemon.s_submit_rtt) done_));
  let local = J.untallied (fun () -> J.setup stream) in
  let overheads =
    List.map
      (fun s ->
        let r, _ = order.(s.Daemon.s_index) in
        let j = List.find (fun j -> J.id j = E.id r) local in
        s.Daemon.s_latency -. fst (J.run j))
      done_
  in
  J.add "service.overhead_s" (median overheads)

(* ------------------------------------------------------------------ *)
(* The run: passes until [seconds] is spent, with set-ups between.     *)

type run = {
  setup_samples : (float * float * (string * float) list) list;  (** seconds, speed, layers *)
  passes : (bool * pass) list;  (** traced?, pass *)
  heap_growth : float;  (** top heap words gained over the passes *)
  probes : float list;  (** every host-speed probe, in order *)
}

(* Set-up samples are spread over the run, one after every pass (then
   more at the end if fewer than [setups]), so that their median covers
   the same stretch of time as the passes.  A sample starts from a
   compacted heap, as a set-up at process start does, rather than inherit
   the collector's debt from the pass before it, and times [setup_reps]
   set-ups back to back; it records their mean seconds and their summed
   layers divided by [setup_reps].  The last set-up of the first sample
   is the one the passes use.  A host-speed probe runs between every two
   of these stretches, so each has one on either side. *)
let measure ~setup ~pass =
  let samples = ref [] in
  let probes = ref [ Calib.probe () ] in
  (* Mean of the probes before and after [f]. *)
  let bracket f =
    let before = List.hd !probes in
    let r = f () in
    let after = Calib.probe () in
    probes := after :: !probes;
    (r, (before +. after) /. 2.)
  in
  let setup_sample () =
    Gc.compact ();
    Hashtbl.reset J.acc;
    Tracer.enabled := traced;
    let (ctx, dt), speed =
      bracket (fun () ->
          let t0 = Tracer.now () in
          let ctx = ref (setup ()) in
          for _ = 2 to setup_reps do
            ctx := setup ()
          done;
          (ctx, (Tracer.now () -. t0) /. float_of_int setup_reps))
    in
    let per_setup = List.map (fun (k, v) -> (k, v /. float_of_int setup_reps)) (snapshot ()) in
    samples := (dt, speed, per_setup) :: !samples;
    Tracer.enabled := false;
    !ctx
  in
  let extra_sample () = ignore (setup_sample ()) in
  let ctx = setup_sample () in
  let g0 = Gc.quick_stat () in
  let start = Tracer.now () in
  let rec loop i acc =
    Hashtbl.reset J.acc;
    (* A traced run alternates untraced and traced passes. *)
    Tracer.enabled := traced && i mod 2 = 1;
    let t0 = Tracer.now () in
    let p, speed = bracket (fun () -> gc_layers (fun () -> pass ctx)) in
    let dur = Tracer.now () -. t0 in
    let acc = (!Tracer.enabled, { p with layers = snapshot (); speed }) :: acc in
    extra_sample ();
    let min_passes = if traced then 2 else 1 in
    (* Stop before a pass that would end past the deadline. *)
    if i + 1 >= min_passes && Tracer.now () -. start +. dur > seconds then List.rev acc
    else loop (i + 1) acc
  in
  let passes = Fun.protect ~finally:(fun () -> Tracer.enabled := false) (fun () -> loop 0 []) in
  let g1 = Gc.quick_stat () in
  while List.length !samples < setups do
    extra_sample ()
  done;
  ( ctx,
    {
      setup_samples = List.rev !samples;
      passes;
      heap_growth = float_of_int (g1.Gc.top_heap_words - g0.Gc.top_heap_words);
      probes = List.rev !probes;
    } )

(* ------------------------------------------------------------------ *)
(* Metrics, report and result.                                         *)

let end_to_end =
  [ ("setup_s", "s"); ("wall_s", "s"); ("job_p50_s", "s"); ("job_p90_s", "s");
    ("jobs_per_s", "1/s"); ("peak_rss_mb", "MB") ]

let per_layer =
  [
    ("universe.build_s", "s"); ("analysis.precheck_s", "s"); ("analysis.invariants_s", "s");
    ("rta.unroll_s", "s"); ("schema.walk_s", "s"); ("schema.positions", "count");
    ("encode.s", "s"); ("encode.atoms", "count"); ("encode.slots", "count");
    ("lia.solve_s", "s"); ("lia.steps", "count"); ("lia.sat", "count"); ("lia.unsat", "count");
    ("lia.unknown", "count"); ("engine.encode_s", "s"); ("engine.solve_s", "s");
    ("engine.other_s", "s"); ("engine.steps", "count"); ("engine.pruned", "count");
    ("engine.skipped", "count"); ("engine.prefix_hits", "count");
    ("engine.core_prunes", "count"); ("engine.static_prunes", "count");
    ("qcache.fingerprint_s", "s"); ("portfolio.hits", "count"); ("portfolio.misses", "count");
    ("portfolio.cross", "count"); ("portfolio.hit_ratio", "ratio");
    ("portfolio.w_interval", "count"); ("portfolio.w_cooper", "count");
    ("portfolio.w_simplex", "count"); ("cachefile.save_s", "s"); ("cachefile.written", "count");
    ("cachefile.uncertified", "count"); ("cachefile.load_s", "s"); ("cachefile.loaded", "count");
    ("cachefile.dropped", "count"); ("cachefile.bytes", "bytes"); ("cold_s", "s");
    ("warm_s", "s"); ("pool_j2_s", "s"); ("pool.busy_s", "s"); ("pool.utilisation", "ratio");
    ("pool.cpu_s", "s"); ("daemon_heavy_s", "s"); ("service.spawn_s", "s");
    ("service.submit_rtt_s", "s"); ("service.overhead_s", "s"); ("service.cpu_s", "s");
    ("gc.minor_words", "words"); ("gc.major_words", "words");
    ("gc.major_collections", "count"); ("gc.top_heap_words", "words"); ("host.probe_s", "s");
    ("failed_frac", "ratio");
  ]

let layer_value layers name = Option.value ~default:0. (List.assoc_opt name layers)
(* Median over the samples that recorded [name]; 0 when none did. *)
let median_of samples name =
  match List.filter_map (List.assoc_opt name) samples with [] -> 0. | l -> median l

(* ------------------------------------------------------------------ *)
(* Workloads.                                                           *)

(* The zoo-sweep mix the daemon can run: no mutants (it cannot resolve
   them) and no naive Inv2_0 (slice resumption re-walks the preorder, so
   41,183 positions cost minutes). *)
let stream_rows =
  List.filter
    (fun (r : E.row) ->
      (match r.E.expect with E.Verdict _ -> true | _ -> false) && r.E.model <> "naive")
    E.zoo_sweep
  |> List.map (fun r -> (r, None))

(* The Pool and Service layers for table2's traced run, once: spawn the
   daemon, run the heavy job on the Pool and through the daemon, stream
   one round of the zoo mix, and reap the daemon. *)
let service_layers ~rng heavy =
  Hashtbl.reset J.acc;
  Tracer.enabled := true;
  let cpu0 = cpu_children () in
  Fun.protect ~finally:(fun () -> Tracer.enabled := false; Daemon.stop_all ()) (fun () ->
      let daemon = spawn_daemon () in
      heavy_phase ~daemon heavy;
      stream_pass ~rng ~daemon stream_rows;
      Daemon.stop daemon);
  J.add "service.cpu_s" (cpu_children () -. cpu0);
  List.filter
    (fun (name, _) -> List.mem name
        [ "pool_j2_s"; "pool.busy_s"; "pool.utilisation"; "pool.cpu_s"; "daemon_heavy_s";
          "service.spawn_s"; "service.submit_rtt_s"; "service.overhead_s"; "service.cpu_s" ])
    (snapshot ())

let run_workload () =
  let rng = Random.State.make [| seed |] in
  let inprocess ~shuffled rows =
    let jobs, run =
      measure ~setup:(fun () -> J.setup rows) ~pass:(inprocess_pass ~rng ~shuffled ~fingerprint:false)
    in
    List.iter J.count_check jobs;
    (jobs, run)
  in
  match workload with
  | "table2" ->
    let jobs, run = inprocess ~shuffled:false (apply_flip (List.map (with_cap heavy_cap) E.table2)) in
    let heavy () = List.find (fun j -> J.id j = E.id (E.simplified "Inv1_0")) jobs in
    (run, if traced then service_layers ~rng (heavy ()) else [])
  | "zoo-sweep" ->
    (snd (inprocess ~shuffled:true (apply_flip (List.map (fun r -> (r, None)) E.zoo_sweep))), [])
  | "cache-cold-warm" ->
    let rows =
      apply_flip
        (List.map (with_cap cache_cap) [ E.simplified "Inv1_0"; E.simplified "SRound-Term" ])
    in
    let jobs, run =
      Fun.protect
        ~finally:(fun () -> try Sys.remove cache_path with Sys_error _ -> ())
        (fun () -> measure ~setup:(fun () -> J.setup rows) ~pass:cache_pass)
    in
    List.iter J.count_check jobs;
    (run, [])
  | _ -> usage ()

let metrics run extra =
  let untraced = List.filter_map (fun (t, p) -> if t then None else Some p) run.passes in
  let traced_passes = List.filter_map (fun (t, p) -> if t then Some p else None) run.passes in
  (* End-to-end times are scaled to the probe's reference speed. *)
  let adjust speed t = t *. Calib.reference /. speed in
  (* Each job's median over the passes, one value per job: a percentile
     over every sample would sample the tail of the host's noise. *)
  let job_medians =
    let by_job = Hashtbl.create 64 in
    List.iter
      (fun p ->
        List.iter
          (fun (id, t) ->
            let ts = Option.value ~default:[] (Hashtbl.find_opt by_job id) in
            Hashtbl.replace by_job id (adjust p.speed t :: ts))
          p.job_times)
      untraced;
    Hashtbl.fold (fun _ ts acc -> median ts :: acc) by_job []
  in
  let jobs_done = List.fold_left (fun a p -> a + List.length p.job_times) 0 untraced in
  let walls = List.map (fun p -> adjust p.speed p.wall) untraced in
  let setup_layers = List.map (fun (_, _, l) -> l) run.setup_samples in
  let e2e =
    [
      ("setup_s", median (List.map (fun (t, speed, _) -> adjust speed t) run.setup_samples));
      ("wall_s", median walls);
      ("job_p50_s", percentile 0.5 job_medians);
      ("job_p90_s", percentile 0.9 job_medians);
      ("jobs_per_s", float_of_int jobs_done /. List.fold_left ( +. ) 0. walls);
      ("peak_rss_mb", peak_rss_mb ());
    ]
  in
  let layers = List.map (fun p -> p.layers) traced_passes in
  let from_setup = [ "universe.build_s"; "analysis.precheck_s"; "analysis.invariants_s"; "rta.unroll_s" ] in
  let hit_ratio l =
    let hits = layer_value l "portfolio.hits" in
    let base = hits +. layer_value l "portfolio.misses" in
    if base > 0. then hits /. base else 0.
  in
  let layer name =
    match name with
    | _ when List.mem_assoc name extra -> List.assoc name extra
    | _ when List.mem name from_setup -> median_of setup_layers name
    | "portfolio.hit_ratio" -> median (List.map hit_ratio layers)
    | "gc.top_heap_words" -> run.heap_growth
    | "host.probe_s" -> median run.probes
    | "failed_frac" -> float_of_int (List.length !J.failures) /. float_of_int (max 1 !J.attempted)
    | _ -> median_of layers name
  in
  let pl = List.map (fun (name, _) -> (name, layer name)) per_layer in
  (e2e, pl, layers, untraced, traced_passes)

let git_meta = [ ("commit", flag "--commit"); ("source_digest", flag "--source-digest") ]

let () =
  let stop_on_signal _ =
    Holistic.Checker.request_interrupt ();
    raise J.Interrupted
  in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle stop_on_signal);
  Sys.set_signal Sys.sigint (Sys.Signal_handle stop_on_signal);
  (try Unix.mkdir out_dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
  let run, extra =
    match Fun.protect ~finally:(fun () -> Daemon.stop_all (); rm_rf daemon_root) run_workload with
    | r -> r
    | exception e ->
      Printf.eprintf "perfbench: %s failed: %s\n%!" workload (Printexc.to_string e);
      exit 2
  in
  let e2e, pl, layers, untraced, traced_passes = metrics run extra in
  let failed = List.length !J.failures and attempted = !J.attempted in
  let tag = Printf.sprintf "%s-s%d-t%d" workload seed (Bool.to_int traced) in
  let meta =
    [
      ("workload", Out.Str workload);
      ("seed", Out.Int seed);
      ("seconds", Out.Num seconds);
      ("trace", Out.Bool traced);
      ("nproc", Out.Int (Domain.recommended_domain_count ()));
      ("ocaml", Out.Str Sys.ocaml_version);
      ("flags", Out.Str (String.concat " " args));
      ("heavy_cap", Out.Int heavy_cap);
      ("cache_cap", Out.Int cache_cap);
      ("setups", Out.Int setups);
      ("passes_untraced", Out.Int (List.length untraced));
      ("passes_traced", Out.Int (List.length traced_passes));
      ("pass_walls", Out.List (List.map (fun (_, p) -> Out.Num p.wall) run.passes));
      ("pass_speeds", Out.List (List.map (fun (_, p) -> Out.Num p.speed) run.passes));
      ("setup_walls", Out.List (List.map (fun (s, _, _) -> Out.Num s) run.setup_samples));
      ("setup_speeds", Out.List (List.map (fun (_, c, _) -> Out.Num c) run.setup_samples));
      ("probes", Out.List (List.map (fun c -> Out.Num c) run.probes));
    ]
    @ List.map (fun (k, v) -> (k, match v with Some s -> Out.Str s | None -> Out.Null)) git_meta
  in
  (* Human-readable report. *)
  Printf.printf "perfbench %s\n"
    (String.concat " " (List.map (fun (k, v) -> k ^ "=" ^ Out.to_string v) meta));
  List.iter (fun (id, exp, got) -> Printf.printf "MISMATCH %s: expected %s, got %s\n" id exp got)
    (List.rev !J.failures);
  Printf.printf "jobs: %d attempted, %d failed (%d job samples untraced)\n" attempted failed
    (List.length (List.concat_map (fun p -> p.job_times) untraced));
  let shown = if traced then pl else e2e in
  let units = if traced then per_layer else end_to_end in
  List.iter
    (fun (name, v) -> Printf.printf "  %-24s %16.6f %s\n" name v (List.assoc name units))
    shown;
  let overhead =
    if traced then begin
      let wall l = median (List.map (fun p -> p.wall) l) in
      let o = wall traced_passes -. wall untraced in
      Printf.printf "tracing overhead: %.6f s per pass (traced %.6f s, untraced %.6f s)\n" o
        (wall traced_passes) (wall untraced);
      let spans = !Tracer.recorded in
      let path = Filename.concat out_dir ("trace-" ^ tag ^ ".json") in
      Tracer.write_chrome path spans;
      Printf.printf "trace: %s (%d spans); self time by layer:\n" path (List.length spans);
      List.iter
        (fun (name, self, total, n) ->
          Printf.printf "  %-24s self %10.6f s  total %10.6f s  %7d spans\n" name self total n)
        (Tracer.summary spans);
      let replay = median_of layers "replay.wall_s" and self = median_of layers "replay.self_sum_s" in
      if replay > 0. then
        Printf.printf "replay: layer self-times %.6f s of %.6f s wall (%.2f%%)\n" self replay
          (100. *. self /. replay);
      [ ("tracing_overhead_s", Out.Num o) ]
    end
    else []
  in
  let metric_obj l units =
    Out.Obj
      (List.map
         (fun (name, v) -> (name, Out.Obj [ ("value", Out.Num v); ("unit", Out.Str (List.assoc name units)) ]))
         l)
  in
  let metrics = if traced then metric_obj pl per_layer else metric_obj e2e end_to_end in
  Out.write
    (Filename.concat out_dir ("result-" ^ tag ^ ".json"))
    (Out.Obj
       ([ ("meta", Out.Obj meta); ("metrics", metrics) ]
       @ overhead
       @ [
           ( "job_times",
             let tbl = Hashtbl.create 64 in
             List.iter
               (fun p -> List.iter (fun (id, dt) -> Hashtbl.add tbl id dt) p.job_times)
               untraced;
             Out.Obj
               (Hashtbl.fold (fun id _ acc -> if List.mem_assoc id acc then acc else (id, Out.List (List.rev_map (fun x -> Out.Num x) (Hashtbl.find_all tbl id))) :: acc) tbl []
               |> List.sort compare) );
         ]
       @ [
           ( "failures",
             Out.List
               (List.map
                  (fun (id, e, g) -> Out.Obj [ ("job", Out.Str id); ("expected", Out.Str e); ("got", Out.Str g) ])
                  !J.failures) );
         ]));
  print_endline
    (Out.to_string
       (Out.Obj
          [
            ("correct", Out.Bool (failed = 0));
            ("attempted", Out.Int attempted);
            ("failed", Out.Int failed);
            ("metrics", metrics);
          ]));
  exit (if failed = 0 then 0 else 1)
