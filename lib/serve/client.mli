(** Client side of the scenario service: a blocking request/response
    connection over any {!Transport} endpoint (Unix-domain socket or
    TCP), plus an offline mode that answers submissions straight from a
    warm store journal when no server is running. *)

type t

val connect : string -> (t, string) result
(** Connect to a Unix-domain server socket path (the original API;
    equivalent to [connect_endpoint (Unix_sock path)]). *)

val connect_endpoint : Transport.endpoint -> (t, string) result

val of_fd : Unix.file_descr -> t
(** Wrap an already-connected stream descriptor (the fleet coordinator
    uses this for shard channels it dialed itself). *)

val close : t -> unit

val rpc : t -> Obs.Json.t -> (Obs.Json.t, string) result
(** Send one request line, read one response line.  [Error] covers
    transport failures (server went away, malformed or oversized
    response); protocol errors come back as [Ok] responses with ["ok"]
    = false. *)

val request :
  ?trace:string * string -> t -> Protocol.request -> (Obs.Json.t, string) result
(** [?trace] attaches a [(trace id, parent span id)] context to the
    request envelope ({!Protocol.with_trace}); the server records its
    spans for this request under that trace id, and a coordinator
    forwards it to the owning shard. *)

val submit :
  ?trace:string * string -> t -> Protocol.submit -> (Obs.Json.t, string) result

val submit_batch :
  ?trace:string * string ->
  t -> Protocol.submit list -> (Obs.Json.t, string) result
(** One [submit_batch] round trip; the response's ["results"] list
    carries a per-item submit response in submission order. *)

val retry_after_of : Obs.Json.t -> float option
(** The positive ["retry_after"] seconds of a rejection, if any. *)

val submit_retry :
  ?trace:string * string ->
  t -> Protocol.submit -> ?timeout:float -> unit -> (Obs.Json.t, string) result
(** {!submit}, but a queue-full rejection (["retry_after"] present) is
    retried after sleeping the server-requested interval (±25% jitter)
    instead of being returned — until acceptance, a different error, or
    [timeout] seconds (default 60) elapse.  Each sleep is recorded in
    the [client.await.backoff.seconds] histogram, so load reports can
    split client-side waiting from server latency. *)

val await :
  t ->
  id:int ->
  ?poll_interval:float ->
  ?max_interval:float ->
  ?timeout:float ->
  unit ->
  (string * Obs.Json.t option, string) result
(** Block until the job leaves the queued/running states (or [timeout]
    seconds elapse — default 600); returns the terminal status string
    and, for ["done"], the result object.  Each round is one [wait]
    request carrying the remaining timeout, which the server answers
    when the job ends: no sleeps, no [status] polling.
    [poll_interval] and [max_interval] are accepted and ignored (there
    is no poll schedule any more). *)

val sync :
  t -> ranges:(int * int) list -> ((string * string) list, string) result
(** Pull the server's resident [job:]/[verify:]/[base:] entries whose
    {!Store.Canonical.point} falls in the inclusive [ranges] (empty =
    all), as [(key, value)] pairs — the warm-restart path of a fleet
    shard. *)

val offline_lookup :
  journal:string ->
  spec:Grid.Spec.t ->
  submit:Protocol.submit ->
  (Obs.Json.t option, string) result
(** Recover the store journal (read-only) and look the submission's key
    up — the offline path of [topoguard submit]: a scenario that any
    previous server run has answered is served with no server at all.
    [Ok None] = cache miss; [Error] = unreadable journal. *)
