(** Worker process of the verification daemon.

    A worker is a forked child of the coordinator connected by a
    socketpair.  It executes one contiguous slice [start, stop) of a
    job's schema preorder at a time, as a checkpointed sequential
    {!Holistic.Checker} run: a synthetic {!Holistic.Journal} with
    [frontier = start] is seeded into a slice-local checkpoint file and
    the checker resumes from it with [max_schemas = stop], so the slice
    runs exactly the positions it owns, re-using the stock crash-safe
    resume machinery — a SIGKILLed worker loses at most
    [ckpt_every - 1] positions of its in-flight slice.

    A heartbeat thread (a systhread on the worker's single domain, so
    the solver loop's minor collections never wait on a second domain)
    reports the last preorder position touched every [hb_interval]
    seconds; the coordinator SIGKILLs a worker whose position stops
    advancing (a hung solver query), so a stuck slice is re-queued like
    a crashed one.

    Deterministic fault injection ({!failpoint_of_string}) covers every
    failure path in CI:
    - [worker-crash:N] — SIGKILL itself before every [N]th discharge of
      this process (churn: respawned workers crash again);
    - [worker-crash-at:POS] — SIGKILL itself before discharging absolute
      position [POS] (a poison pill: every retry dies at the same place,
      so the slice exhausts its budget and is quarantined);
    - [worker-raise-at:POS] — raise inside the discharge at [POS]
      (exercises the checker's own in-process retry/quarantine);
    - [worker-hang-at:POS] — sleep forever at [POS] (exercises the
      heartbeat deadline). *)

type failpoint

(** [Error] on an unknown grammar. *)
val failpoint_of_string : string -> (failpoint, string) result

val failpoint_to_string : failpoint -> string

type config = {
  cache_path : string option;
      (** shared discharge cache: loaded at spawn, merged back (under a
          lock file, load-union-save) after every slice that added
          entries *)
  ckpt_every : int;  (** slice checkpoint cadence, in positions *)
  hb_interval : float;
  failpoints : failpoint list;
}

(** [main config fd] — the child's entry point after the fork; never
    returns (exits when the coordinator closes the pipe or sends
    [quit]). *)
val main : config -> Unix.file_descr -> 'a
