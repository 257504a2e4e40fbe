(** The scenario service's wire protocol: one JSON object per line, both
    directions, over any stream transport ({!Transport}: Unix-domain or
    TCP — newlines inside grid payloads are JSON-escaped by construction,
    so framing is a newline scan bounded by {!Frame}'s line cap).

    Requests carry an ["op"] discriminator and a protocol ["v"]ersion
    (absent = 1; newer-than-ours is rejected up front); responses always
    carry ["ok"] — [true] with op-specific fields, or [false] with
    ["error"] (and ["retry_after"] seconds when the job queue is full) —
    plus the server's ["v"].  See docs/serving.md for the full
    specification and an example session. *)

val version : int
(** The protocol version this build speaks (1). *)

(** Transport-agnostic line framing with a cap on line length, so a
    malformed or hostile peer cannot balloon the receive buffer.  The
    one {!splitter} frames every stream — the non-blocking {!Front}
    door feeds it each read, the blocking {!read_line} is built on it —
    and {!write_line} is the one writer. *)
module Frame : sig
  val default_max_line : int
  (** 64 MiB — a [submit_batch] line carries whole grid files per item,
      and a [sync] response a shard's journal slice. *)

  type splitter
  (** Pending bytes of one stream, each scanned for a newline once. *)

  val splitter : ?max_line:int -> unit -> splitter

  val feed : splitter -> Bytes.t -> int -> int -> unit
  (** [feed s buf ofs n] appends [n] bytes of [buf] from [ofs]. *)

  val next : splitter -> [ `Line of string | `Partial | `Oversized ]
  (** The next complete line (without its newline), [`Partial] when the
      pending bytes end mid-line, or [`Oversized] when the next line —
      complete or still accumulating — exceeds [max_line] bytes.  After
      [`Oversized] the stream is desynchronised and must be closed. *)

  type reader

  val reader : ?max_line:int -> Unix.file_descr -> reader

  val read_line : reader -> [ `Line of string | `Eof | `Oversized ]
  (** Blocking {!next} over a file descriptor; a partial line at EOF is
      dropped. *)

  val write_line : Unix.file_descr -> string -> unit
  (** Write [s ^ "\n"], retrying partial writes and waiting out [EAGAIN];
      a closed peer raises [Unix.Unix_error]. *)
end

type submit = {
  grid : string;  (** grid-file content, paper text format *)
  mode : string;  (** ["topo"] | ["state"] | ["ufdi"] *)
  base : string;  (** ["opf"] | ["proportional"] | ["case-study"] *)
  increase : string option;
      (** decimal percent overriding the file's target increase [I] *)
  max_candidates : int;
  single_line : bool;  (** closed-form single-line enumeration *)
  backend : string;  (** ["lp"] | ["smt"] | ["factors"] *)
  timeout : float;  (** per-job wall-clock seconds; [<= 0] = server default *)
}

val default_submit : submit
(** [mode = "topo"], [base = "case-study"], no increase override,
    [max_candidates = 200], SMT enumeration, [backend = "lp"], server
    default timeout — mirroring the CLI defaults of [topoguard impact]. *)

type request =
  | Submit of submit
  | Submit_batch of submit list
      (** one connection, many scenarios: the response carries a
          ["results"] list with one per-item submit response (id/cached/
          error) in submission order *)
  | Status of int
  | Result of int
  | Wait of int * float option
      (** [Wait (id, timeout)]: answered once the job reaches a terminal
          state, like [Result] (the outcome object for ["done"]), or after
          [timeout] seconds with the job's current status.  [None] waits
          for the terminal state however long it takes; [<= 0] answers at
          once. *)
  | Cancel of int
  | Sync of (int * int) list
      (** journal warm-start pull: return every resident
          [job:]/[verify:]/[base:] store entry whose
          {!Store.Canonical.point} falls inside one of the inclusive
          [(lo, hi)] ranges (empty list = the whole keyspace), as
          [entries: [[key, value], ...]].  A restarted shard asks its
          peers for its ring ranges and rejoins warm. *)
  | Stats
  | Metrics  (** Prometheus text exposition of the server's metrics *)
  | Shutdown

val json_of_request : request -> Obs.Json.t
val request_of_json : Obs.Json.t -> (request, string) result

val request_id_of_json : Obs.Json.t -> string option
(** The optional ["request_id"] a client attached to a request object;
    the server echoes it verbatim in the response (or generates one). *)

val trace_of_json : Obs.Json.t -> (string * string) option
(** The optional envelope-level ["trace"] object of a request —
    [{"id": trace-id, "parent": span-id}] — as the [(trace id, parent
    span id)] pair {!Obs.Trace.with_context} takes ([""] = no parent).
    Absent or malformed yields [None], so v0 clients that never heard
    of tracing keep working.  The pair is deliberately excluded from
    {!job_key}: a traced and an untraced submission of the same
    scenario share one cache entry. *)

val with_trace :
  (string * string) option -> Obs.Json.t -> Obs.Json.t
(** Attach (or replace) the ["trace"] field on a request object —
    [None] and non-object JSON pass through unchanged.  Each hop
    forwards the incoming trace id with its own span id as the new
    parent, which is what makes the merged Chrome trace nest
    client → coordinator → shard → solver. *)

val job_params : submit -> (string * string) list
(** The key-relevant scenario parameters (mode, base, increase override,
    candidate bound, enumeration strategy, backend).  The timeout is
    deliberately excluded: it bounds the computation, it does not change
    the answer. *)

val job_key : Grid.Spec.t -> submit -> string
(** The store key under which this submission's result is cached:
    ["job:" ^ Store.Canonical.key] over the parsed spec, {!job_params}
    and a {!Store.Canonical.ordering} fingerprint of the file's row
    order.  The ordering term is deliberate: results embed attack-vector
    line indices numbered by the submitted file's rows, so a row-permuted
    copy of a solved grid must miss and recompute rather than receive
    indices that name different rows of its own file (the impact loop's
    [verify:] entries, which are keyed by physical topology, still carry
    most of the solve across the permutation).  Client and server must
    (and do) derive keys through this one function, which is what makes
    offline cache lookups possible. *)
