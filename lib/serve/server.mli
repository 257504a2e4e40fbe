(** The resident scenario service.

    One process owns a {!Front} door on a stream socket ({!Transport}:
    the Unix-domain default, or TCP for fleet shards) and a {!Pool} of
    worker domains; clients speak the line-delimited JSON protocol of
    {!Protocol}.  Submissions are keyed through {!Store.Canonical} and
    answered from the content-addressed store when possible — a cache hit
    short-circuits the whole job (no solver is created at all).  Misses
    enter a bounded FIFO queue (backpressure: a full queue rejects with
    [retry_after] rather than buffering unboundedly) and run on worker
    domains with a per-job wall-clock deadline and cooperative
    cancellation via {!Topoguard.Impact.Interrupted}.

    Shutdown: SIGTERM (or the [shutdown] op) puts the server into
    draining mode — the listener closes, queued and running jobs finish
    (their results are journaled), open connections can still poll
    status/results of what they submitted, then {!run} returns.

    Every figure is observable: [serve.queue.depth] (a gauge maintained
    with +1/-1 counter updates), [serve.jobs.{submitted,done,failed,
    timeout,cancelled,rejected,cache_hits,completed}], [serve.requests],
    [store.{hit,miss,evict,insert}] and the
    [serve.job.{wait,service}_seconds] / [serve.request.seconds]
    histograms all land in the ordinary [Obs] snapshot, which both the
    [stats] op and the CLI's [--stats]/[--stats-json] report.  The
    [metrics] op returns the same data as Prometheus text exposition
    (plus queue-depth/running/uptime gauges), with the invariant that
    the service histogram's [le="+Inf"] bucket count equals
    [topoguard_jobs_completed_total] within any single scrape.

    Every response carries a [request_id] — echoed from the request when
    the client set one, generated otherwise — and, when [access_log] is
    set, each request and each job reaching a terminal state appends one
    JSON object to that file (see docs/serving.md for the schema). *)

type config = {
  socket_path : string;
  listen : Transport.endpoint option;
      (** where to listen; [None] = [Unix_sock socket_path] (the
          original single-server shape) *)
  jobs : int;  (** concurrent analyses (worker domains; min 1) *)
  queue_capacity : int;  (** bound on queued-not-yet-running jobs *)
  cache_bytes : int;  (** LRU byte budget of the result store *)
  journal : string option;  (** persistence for the store, if any *)
  default_timeout : float;  (** per-job seconds when a submit gives none *)
  max_terminal_jobs : int;
      (** finished jobs retained for status/result queries; older ones
          are forgotten (their results remain addressable by key in the
          store), bounding memory on a long-lived server *)
  verbose : bool;  (** log lifecycle events to stderr *)
  access_log : string option;
      (** append one JSON object per request and per terminal job to this
          file; an unopenable path is a startup error *)
  trace : string option;
      (** record trace spans while serving and write Chrome
          [trace_event] JSON here when the server drains *)
  sync_peers : Transport.endpoint list;
      (** peers to pull a journal warm-start from before accepting
          connections: after replaying its own journal, the server asks
          each peer to [sync] the [job:]/[verify:]/[base:] entries of
          [sync_ranges] and inserts them.  A peer that is down only
          costs cache warmth, never startup. *)
  sync_ranges : (int * int) list;
      (** inclusive {!Store.Canonical.point} ranges this server owns
          (its ring arcs); empty = pull everything *)
  max_line : int;
      (** reject (and close) connections whose buffered partial line
          exceeds this many bytes — {!Protocol.Frame.default_max_line}
          by default *)
}

val default_config : socket_path:string -> config
(** jobs 1, queue 64, cache 64 MiB, no journal, 300 s timeout, 1024
    retained terminal jobs, quiet, no access log, no trace, Unix-domain
    listener, no sync peers, default line cap. *)

val run : config -> (unit, string) result
(** Blocks until drained.  [Error] covers startup failures (socket in
    use, unwritable journal) — never job failures, which are reported to
    the submitting client instead. *)
