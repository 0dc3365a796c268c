(* A probe of the host's speed.

   A shared machine's speed drifts by tens of percent over minutes, and
   a run's timings drift with it.  [probe] times a fixed piece of work
   that calls no library code and allocates nothing (so the heap a pass
   leaves behind cannot slow it): pseudo-random read-modify-writes over
   a 1 MB array, for the caches and memory, and insertion sorts of short
   windows of it, for arithmetic and branches.  Its time tracks the host
   and nothing a change to the repository can touch.  The benchmark
   probes between every two measured stretches and scales each
   stretch's time by [reference] over the mean of the probes on either
   side of it: the time the stretch would take on a host on which the
   probe takes [reference] seconds. *)

(* Seconds the probe takes on the 2-vCPU VM the benchmark was first
   measured on; a constant, so that runs of any two commits compare. *)
let reference = 0.01

let size = 1 lsl 17
let buf = Array.make size 0

let work () =
  Array.fill buf 0 size 0;
  let x = ref 12345 in
  for i = 0 to 3_000_000 do
    x := ((!x * 1103515245) + 12345) land 0x3fffffff;
    let j = !x land (size - 1) in
    buf.(j) <- buf.(j) + i
  done;
  (* Insertion sort of 32-element windows. *)
  for w = 0 to 8191 do
    let base = (w * 997) land (size - 64) in
    for i = base + 1 to base + 31 do
      let v = buf.(i) in
      let k = ref (i - 1) in
      while !k >= base && buf.(!k) > v do
        buf.(!k + 1) <- buf.(!k);
        decr k
      done;
      buf.(!k + 1) <- v
    done
  done;
  !x

let reps = 5

(* Seconds of the median of [reps] back-to-back runs of the work. *)
let probe () =
  let times =
    List.init reps (fun _ ->
        let t0 = Tracer.now () in
        ignore (Sys.opaque_identity (work ()));
        Tracer.now () -. t0)
    |> List.sort compare
  in
  List.nth times (reps / 2)
