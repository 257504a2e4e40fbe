(** The coordinator's channel to one shard server: name, endpoint, and
    a lazily (re)dialed connection.  Protocol-level errors ([ok] =
    false responses) prove the shard alive; only transport failures
    mark it dead, after one reconnect attempt (the shard may just have
    restarted and dropped the old connection).  A dead shard fails
    every call instantly until {!revive}. *)

type t

val make : name:string -> Serve.Transport.endpoint -> t
val name : t -> string
val endpoint : t -> Serve.Transport.endpoint
val alive : t -> bool

val rpc : t -> Obs.Json.t -> (Obs.Json.t, string) result
(** One request/response round trip; dials on first use.  [Error] =
    transport failure (and the shard is now marked dead). *)

val request :
  ?trace:string * string ->
  t ->
  Serve.Protocol.request ->
  (Obs.Json.t, string) result
(** [?trace] forwards a [(trace id, parent span id)] context on the
    request envelope ({!Serve.Protocol.with_trace}), so the shard's
    spans for this request join the originating trace. *)

val mark_dead : t -> unit
val revive : t -> unit

val close : t -> unit
(** Drop the connection and the idle side connections (the shard stays
    alive for a future redial). *)

(** {2 Side connections}

    One per parked [wait], so the main connection never waits on a job
    and the coordinator's select loop drives the reply. *)

type side

val side_fd : side -> Unix.file_descr

val side_send : t -> Obs.Json.t -> (side, string) result
(** Write one request on an idle side connection (a stale one is
    dropped for the next) or a freshly dialed one.  [Error] = the shard
    is unreachable, and now marked dead. *)

val side_read :
  side -> [ `Reply of Obs.Json.t | `Pending | `Failed of string ]
(** One non-blocking read: the reply once its line is complete,
    [`Pending] before, [`Failed] on a transport error (the shard died)
    or a malformed reply. *)

val side_idle : t -> side -> unit
(** Return a side connection whose reply was read, for reuse. *)

val close_side : side -> unit
