(** The front door of a protocol process: the shard {!Server} and the
    fleet's [Cluster.Coordinator] both run this one loop.  It owns
    listening and non-blocking accept, the [select] loop (50 ms ticks,
    ended early by {!wake}), per-connection framing through
    {!Protocol.Frame} (a line past the cap is answered once and the
    connection closed, counted in [serve.requests.oversized]), writing
    responses, the request envelope, parked requests, SIGTERM as a drain
    request, and the trace file and access log.

    The envelope: every response gets a ["request_id"] (the client's, or
    a generated one) and the protocol ["v"]; every request is timed into
    the [NAME.request.seconds] histogram, recorded as a [NAME.request]
    complete span under its trace context, and written as one
    [kind = "request"] access-log line.

    Parking: a handler may defer a reply ({!Park}) and {!answer} it from
    a later loop turn — when a job finishes, a timeout expires, or a
    watched descriptor delivers it.  The envelope is applied when the
    reply is written, so its latency includes the parked time.  A
    connection dispatches no further line while it has a parked request
    (responses stay in request order), and one that closes while parked
    releases the request. *)

type door

val door : name:string -> rid_prefix:string -> ?mint_trace:bool -> unit -> door
(** The per-process names: [name] prefixes the request histogram and
    span, generated request ids are [rid_prefix ^ n].  With
    [mint_trace], a request without a trace context gets a fresh trace
    id while tracing is on.  Make doors at module initialisation, so
    the histogram is registered from the start like every other metric. *)

val ok : (string * Obs.Json.t) list -> Obs.Json.t
(** [{"ok": true, ...}] *)

val err : ?retry_after:float -> string -> Obs.Json.t
(** [{"ok": false, "error": msg}], plus ["retry_after"] when given. *)

type reply = {
  resp : Obs.Json.t;  (** the response, before the envelope fields *)
  span_args : (string * string) list;  (** after [verb]/[request_id] *)
  log_fields : (string * Obs.Json.t) list;
      (** access-log fields between [outcome] and [latency_s] *)
}

val reply : Obs.Json.t -> reply
(** No extra span args or log fields. *)

type parked
(** A request whose reply is deferred. *)

type outcome =
  | Reply of reply
  | Park of (parked -> unit -> unit)
      (** [Park file]: Front calls [file p] at once, which files [p]
          wherever its answer will come from and returns the function
          that un-files it — called instead of {!answer} if the
          connection closes first. *)

type t

val open_ :
  door ->
  endpoint:Transport.endpoint ->
  max_line:int ->
  access_log:string option ->
  trace:string option ->
  verbose:bool ->
  log_prefix:string ->
  (t, string) result
(** Arm the metrics clock, ignore SIGPIPE, listen, open the access log
    for appending (an unopenable path is an [Error]), start tracing when
    [trace] names an output file, and turn SIGTERM into {!drain}. *)

val log : t -> ('a, unit, string, unit) format4 -> 'a
(** One stderr line behind [log_prefix], when [verbose]. *)

val log_access : t -> (string * Obs.Json.t) list -> unit
(** Append [{"ts": now, ...}] as one line to the access log, if any. *)

val draining : t -> bool
val drain : t -> unit

val answer : t -> parked -> reply -> unit
(** Write a parked request's reply, with its envelope, and resume its
    connection's dispatch.  A no-op once the request was released or
    answered.  Event-loop domain only. *)

val wake : t -> unit
(** End the current (or next) [select] at once, so [tick] runs now.
    Safe from any domain: a byte on a self-pipe in the select set. *)

val watch : t -> Unix.file_descr -> (unit -> unit) -> unit
(** Add [fd] to the select set; the callback runs on the loop whenever
    [fd] is readable, until {!unwatch}.  The callback must not block:
    one non-blocking read per call. *)

val unwatch : t -> Unix.file_descr -> unit

val serve :
  t ->
  handle:((string * string) option -> (Protocol.request, string) result -> outcome) ->
  ?tick:(unit -> unit) ->
  ?finished:(unit -> bool) ->
  unit ->
  unit
(** Answer requests until {!draining} and [finished ()] (default: at
    once).  [handle ctx req] runs under the request's trace context;
    [tick] runs twice every loop turn: before any request is dispatched
    (so each sees the state the workers left) and after.  While draining
    but not finished, the listener is closed and open connections are
    still answered.  On return the connections and listener are closed
    and a Unix-domain socket file is removed. *)

val close : t -> unit
(** Write the trace file, close the access log and the wake pipe,
    restore the previous SIGTERM handler.  Call after the process's own
    tear-down (worker domains joined, so none can still {!wake}), so the
    trace holds everything it recorded. *)
