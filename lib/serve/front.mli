(** The front door of a protocol process: the shard {!Server} and the
    fleet's [Cluster.Coordinator] both run this one loop.  It owns
    listening and non-blocking accept, the [select] loop (50 ms ticks),
    per-connection framing through {!Protocol.Frame} (a line past the
    cap is answered once and the connection closed, counted in
    [serve.requests.oversized]), writing responses, the request
    envelope, SIGTERM as a drain request, and the trace file and access
    log.

    The envelope: every response gets a ["request_id"] (the client's, or
    a generated one) and the protocol ["v"]; every request is timed into
    the [NAME.request.seconds] histogram, recorded as a [NAME.request]
    complete span under its trace context, and written as one
    [kind = "request"] access-log line. *)

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

val serve :
  t ->
  handle:((string * string) option -> (Protocol.request, string) result -> reply) ->
  ?tick:(unit -> unit) ->
  ?finished:(unit -> bool) ->
  unit ->
  unit
(** Answer requests until {!draining} and [finished ()] (default: at
    once).  [handle ctx req] runs under the request's trace context;
    [tick] runs after every loop turn.  While draining but not finished,
    the listener is closed and open connections are still answered.  On
    return the connections and listener are closed and a Unix-domain
    socket file is removed. *)

val close : t -> unit
(** Write the trace file, close the access log, restore the previous
    SIGTERM handler.  Call after the process's own tear-down, so the
    trace holds everything it recorded. *)
