(** Line-delimited JSON framing over file descriptors: the wire format
    of the verification daemon (client socket and worker pipes alike).
    One {!Jsonc} document per [\n]-terminated line, no other framing. *)

type reader

val reader : Unix.file_descr -> reader
val fd : reader -> Unix.file_descr

(** [poll r] reads whatever is available on the descriptor and returns
    the complete lines received (possibly none: a partial line stays
    buffered).  [`Eof] once the peer closed (any unterminated trailing
    bytes are discarded: a torn final line means the writer died
    mid-message, and every daemon message is only acted upon whole). *)
val poll : reader -> [ `Lines of string list | `Eof ]

(** [send fd json] writes one JSON line.  Raises [Unix.Unix_error]
    (e.g. [EPIPE] — callers treat the peer as gone). *)
val send : Unix.file_descr -> Jsonc.t -> unit

(** [send_locked mutex fd json] serializes concurrent writers (worker
    main loop vs. its heartbeat thread) so lines never interleave. *)
val send_locked : Mutex.t -> Unix.file_descr -> Jsonc.t -> unit
