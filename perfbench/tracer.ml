(* Span recorder for the traced run.

   Spans are recorded by the benchmark around its calls into the
   library's public entry points (the library itself is not
   instrumented).  They stay in memory and are written once, at the end
   of the run, as Chrome trace-event JSON that Perfetto
   (https://ui.perfetto.dev) and chrome://tracing open directly.  With
   tracing off, [span] is a plain call. *)

(* Monotonic seconds. *)
let now () = Int64.to_float (Monotonic_clock.now ()) *. 1e-9

type span = {
  id : int;
  name : string;
  job : string;
  parent : int;  (** id of the enclosing span, -1 at the root *)
  start : float;
  mutable stop : float;
}

let enabled = ref false
let recorded : span list ref = ref []
let open_spans : span list ref = ref []
let next_id = ref 0

(* The job every span opened from now on belongs to. *)
let job = ref ""

let span name f =
  if not !enabled then f ()
  else begin
    let parent = match !open_spans with s :: _ -> s.id | [] -> -1 in
    let s = { id = !next_id; name; job = !job; parent; start = now (); stop = 0. } in
    incr next_id;
    open_spans := s :: !open_spans;
    Fun.protect
      ~finally:(fun () ->
        s.stop <- now ();
        open_spans := List.tl !open_spans;
        recorded := s :: !recorded)
      f
  end

let with_job id f =
  let saved = !job in
  job := id;
  Fun.protect ~finally:(fun () -> job := saved) f

let duration s = s.stop -. s.start

(* Self time of every span: its duration minus the time its children
   cover.  Children of one span run one after another (the benchmark is
   single-threaded where it records spans), so their durations add. *)
let self_times spans =
  let children = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace children s.parent
          (duration s +. Option.value ~default:0. (Hashtbl.find_opt children s.parent)))
    spans;
  List.map
    (fun s -> (s, duration s -. Option.value ~default:0. (Hashtbl.find_opt children s.id)))
    spans

(* All spans in the subtree rooted at [root], root included. *)
let subtree spans root =
  let kids = Hashtbl.create 1024 in
  List.iter (fun s -> Hashtbl.add kids s.parent s) spans;
  let rec go acc s = List.fold_left go (s :: acc) (Hashtbl.find_all kids s.id) in
  go [] root

(* Per-name totals of self time, total time and count, sorted by self
   time. *)
let summary spans =
  let tbl = Hashtbl.create 64 in
  List.iter
    (fun (s, self) ->
      let a, t, n = Option.value ~default:(0., 0., 0) (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (a +. self, t +. duration s, n + 1))
    (self_times spans);
  Hashtbl.fold (fun name (a, t, n) acc -> (name, a, t, n) :: acc) tbl []
  |> List.sort (fun (_, a, _, _) (_, b, _, _) -> compare b a)

let write_chrome path spans =
  let t0 = List.fold_left (fun m s -> Float.min m s.start) infinity spans in
  let us x = (x -. t0) *. 1e6 in
  let oc = open_out path in
  output_string oc "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  List.iteri
    (fun i s ->
      if i > 0 then output_string oc ",\n";
      Printf.fprintf oc
        "{\"name\":%s,\"cat\":\"perfbench\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\
         \"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d,\"job\":%s}}"
        (Out.str s.name) (us s.start)
        (us s.stop -. us s.start)
        s.id s.parent (Out.str s.job))
    (List.sort (fun a b -> compare a.start b.start) spans);
  output_string oc "]}\n";
  close_out oc
