(* The verification daemon under test: `holistic serve --workers 2` on a
   private state directory.  [stop] shuts it down and reaps it and every
   worker it forked on every exit path; a benchmark run never leaves a
   process behind. *)

module J = Jsonc
module Client = Service.Client

type t = {
  pid : int;
  state : string;
  mutable workers : int list;  (** worker pids, from the last [status] reply *)
  mutable reaped : bool;
}

(* Daemon processes still running, for [stop_all] on the way out. *)
let live : t list ref = ref []

let alive pid =
  match Unix.kill pid 0 with
  | () -> (
    (* A zombie still answers signal 0: count it as gone. *)
    match In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" pid) In_channel.input_all with
    | s -> (
      match String.rindex_opt s ')' with
      | Some i when i + 2 < String.length s -> s.[i + 2] <> 'Z'
      | _ -> true)
    | exception Sys_error _ -> false)
  | exception Unix.Unix_error _ -> false

let request t msg =
  match Client.connect ~retries:0 ~state_dir:t.state () with
  | Error e -> Error e
  | Ok c -> Fun.protect ~finally:(fun () -> Client.close c) (fun () -> Client.request c msg)

let refresh_workers t =
  match request t (J.Obj [ ("t", J.Str "status") ]) with
  | Ok reply -> (
    match J.member_opt "workers" reply with
    | Some (J.List ws) -> t.workers <- List.map (fun w -> J.to_int (J.member "pid" w)) ws
    | _ -> ())
  | Error _ -> ()

(* Wait up to [timeout] seconds for the daemon to exit. *)
let reap t ~timeout =
  let deadline = Tracer.now () +. timeout in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] t.pid with
    | 0, _ ->
      if Tracer.now () >= deadline then false
      else begin
        Unix.sleepf 0.01;
        go ()
      end
    | _ -> true
    | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
  in
  go ()

let stop t =
  if not t.reaped then begin
    refresh_workers t;
    let graceful =
      match request t (J.Obj [ ("t", J.Str "shutdown") ]) with
      | Ok _ -> reap t ~timeout:20.
      | Error _ -> false
    in
    if not graceful then begin
      (try Unix.kill t.pid Sys.sigterm with Unix.Unix_error _ -> ());
      if not (reap t ~timeout:5.) then begin
        (try Unix.kill t.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (reap t ~timeout:5.)
      end
    end;
    (* Workers orphaned by a daemon that did not drain. *)
    List.iter
      (fun w -> if alive w then try Unix.kill w Sys.sigkill with Unix.Unix_error _ -> ())
      t.workers;
    t.reaped <- true;
    live := List.filter (fun d -> d != t) !live
  end

let stop_all () = List.iter stop !live

(* Spawn the daemon and wait for its first successful ping.  Returns the
   daemon and the seconds from spawn to that ping. *)
let spawn ~cli ~state =
  let t0 = Tracer.now () in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDWR ] 0 in
  let pid =
    Fun.protect
      ~finally:(fun () -> Unix.close devnull)
      (fun () ->
        Unix.create_process cli
          [| cli; "serve"; "--state"; state; "--workers"; "2" |]
          devnull devnull devnull)
  in
  let t = { pid; state; workers = []; reaped = false } in
  live := t :: !live;
  let deadline = t0 +. 30. in
  let rec ping () =
    match request t (J.Obj [ ("t", J.Str "ping") ]) with
    | Ok reply when J.member_opt "ok" reply = Some (J.Bool true) -> Tracer.now () -. t0
    | _ ->
      if Tracer.now () > deadline then failwith "daemon did not answer ping within 30 s";
      Unix.sleepf 0.002;
      ping ()
  in
  let ready = ping () in
  refresh_workers t;
  (t, ready)

(* One job through the blocking client: submit, then wait for its row. *)
let run_job t ~model ~spec ?max_schemas () =
  match Client.connect ~retries:0 ~state_dir:t.state () with
  | Error e -> failwith e
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> Client.close c)
      (fun () ->
        match Client.submit c ~model ~spec ?max_schemas () with
        | Error e -> failwith ("submit: " ^ e)
        | Ok ids -> (
          match Client.wait_jobs c ids with
          | Ok [ (_, row) ] -> row
          | Ok _ -> failwith "one row expected"
          | Error e -> failwith ("wait: " ^ e)))

type streamed = {
  s_index : int;  (** position of the job in the input list *)
  s_row : J.t;
  s_latency : float;  (** submit sent to result row received *)
  s_submit_rtt : float;  (** submit sent to its reply received *)
}

(* Stream [jobs] — (model, spec, max_schemas) — through one connection,
   keeping at most [window] jobs outstanding: a closed loop that submits
   the next job as soon as one finishes. *)
let stream t ~window jobs =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> try Unix.close fd with Unix.Unix_error _ -> ())
    (fun () ->
      Unix.connect fd (Unix.ADDR_UNIX (Service.Coordinator.socket_path t.state));
      let reader = Service.Lineio.reader fd in
      let inbox = Queue.create () in
      let rec next () =
        match Queue.take_opt inbox with
        | Some m -> m
        | None -> (
          match Service.Lineio.poll reader with
          | `Eof -> failwith "daemon closed the stream connection"
          | `Lines ls ->
            List.iter (fun l -> Queue.add (J.of_string l) inbox) ls;
            next ())
      in
      let inflight = Hashtbl.create 4 in
      let done_ = ref [] in
      let complete msg =
        let id = J.to_int (J.member "id" msg) in
        match Hashtbl.find_opt inflight id with
        | None -> failwith (Printf.sprintf "result for unknown job %d" id)
        | Some (index, t0, rtt) ->
          Hashtbl.remove inflight id;
          done_ :=
            { s_index = index; s_row = J.member "row" msg; s_latency = Tracer.now () -. t0;
              s_submit_rtt = rtt }
            :: !done_
      in
      let is_result m = J.member_opt "t" m = Some (J.Str "job") in
      let submit index (model, spec, cap) =
        let t0 = Tracer.now () in
        Service.Lineio.send fd
          (J.Obj
             ([ ("t", J.Str "submit"); ("model", J.Str model); ("spec", J.Str spec) ]
             @ match cap with Some n -> [ ("max_schemas", J.Int n) ] | None -> []));
        let rec reply () =
          let m = next () in
          if is_result m then begin
            complete m;
            reply ()
          end
          else m
        in
        let r = reply () in
        let rtt = Tracer.now () -. t0 in
        match J.member_opt "ids" r with
        | Some (J.List [ J.Int id ]) ->
          Hashtbl.replace inflight id (index, t0, rtt);
          Service.Lineio.send fd (J.Obj [ ("t", J.Str "wait"); ("id", J.Int id) ])
        | _ -> failwith ("submit refused: " ^ J.to_string r)
      in
      let rec loop i = function
        | job :: rest when Hashtbl.length inflight < window ->
          submit i job;
          loop (i + 1) rest
        | pending ->
          if Hashtbl.length inflight > 0 then begin
            let m = next () in
            if is_result m then complete m
            else failwith ("unexpected daemon message: " ^ J.to_string m);
            loop i pending
          end
      in
      loop 0 jobs;
      List.rev !done_)
