(** Zero-dependency observability: monotonic counters, lock-free
    log-bucketed histograms (wall-clock timings included), structured
    trace spans, and a process-wide registry that snapshots to a
    human-readable table, machine-readable JSON, or Prometheus text
    exposition.

    Design constraints, in order:

    - Counters and histograms sit on solver hot paths (SAT decisions,
      simplex pivots), so recording is a bounded number of lock-free
      atomic operations — no hashtable lookup, no lock, no allocation per
      observation.  Handles are created once at module-initialisation
      time with [make] and kept in module-level bindings.
    - The layer is domain-safe, because the [Pool] work pool runs
      instrumented code (candidate verification, contingency screening)
      on several domains at once: counter and histogram totals are
      {e exact} under parallelism (atomic adds, not per-domain
      approximations merged later), and registry creation/snapshot/reset
      is serialised by a registry mutex.  Trace spans go to per-domain
      ring buffers, so recording never contends on a lock.
    - {!Histogram.time} calls the clock twice per span, which is too
      expensive for inner loops but fine around whole solves; it is
      additionally gated on {!set_enabled} so a disabled build pays one
      branch.
    - The library depends on nothing (not even [unix]): the wall clock is
      injected via {!Clock.set} by binaries that link [unix]; the default
      is [Sys.time] (CPU seconds), which keeps the library usable from
      anywhere. *)

val set_enabled : bool -> unit
(** Master switch for the clock-reading {!Histogram.time} (counters and
    direct histogram observations are always live; they are too cheap to
    gate).  Off by default. *)

val enabled : unit -> bool

module Clock : sig
  val set : (unit -> float) -> unit
  (** Install a wall clock, e.g. [Unix.gettimeofday].  Default [Sys.time]. *)

  val now : unit -> float
end

module Probe : sig
  val poll : unit -> unit
  (** Run this domain's installed probe, if any.  Called from inside
      long-running kernels (simplex pivots, sparse LU steps); the probe
      interrupts by raising.  A few nanoseconds when nothing is
      installed. *)

  val with_ : (unit -> unit) -> (unit -> 'a) -> 'a
  (** [with_ f body] installs [f] as the current domain's probe for the
      duration of [body] (restoring the previous probe after, also on
      exceptions).  The probe is domain-local: solves running on other
      domains are not affected. *)
end

module Counter : sig
  type t

  val make : string -> t
  (** Create-or-get the registered counter with this name.  Counters are
      process-global; two [make] calls with one name share state. *)

  val incr : t -> unit
  (** Atomic; concurrent increments from several domains are all counted. *)

  val add : t -> int -> unit
  val get : t -> int
  val name : t -> string
end

type hist_entry = {
  h_count : int;  (** observations *)
  h_sum : float;  (** sum of observed values (micro-unit resolution) *)
  h_min : float option;  (** [None] when empty *)
  h_max : float option;
  h_buckets : (float * int) list;
      (** nonempty buckets only, ascending [(upper_bound, count)];
          the overflow bucket's bound is [infinity] *)
}
(** Snapshot of one histogram.  Counts are per-bucket (not cumulative);
    {!Prometheus.histogram} derives the cumulative form. *)

(** Lock-free log-bucketed histograms with the same hot-path discipline
    as {!Counter}: one observation is a binary search over a static
    64-entry bound array plus a bounded number of atomic operations — no
    lock, no allocation.  Buckets are powers of two from [2^-20]
    (≈ 9.5e-7, so microsecond latencies resolve) to [2^42], plus an
    overflow bucket; values ≤ [2^-20] (including zero) land in the first
    bucket.  Sum/min/max are kept in integer micro-units, so they are
    exact under parallelism at 1e-6 resolution.

    A {!read} taken while other domains are observing may be momentarily
    inconsistent between fields (count vs. bucket totals); quiescent
    reads are exact. *)
module Histogram : sig
  type t

  val make : string -> t
  (** Create-or-get, like {!Counter.make}. *)

  val observe : t -> float -> unit
  (** Always live (not gated on {!enabled}), like {!Counter.incr}. *)

  val observe_int : t -> int -> unit

  val time : t -> (unit -> 'a) -> 'a
  (** Run the thunk and observe its wall-clock duration in seconds, also
      when it raises — when {!enabled} (it reads the clock); otherwise
      just run it. *)

  val count : t -> int
  val sum : t -> float
  val name : t -> string

  val read : t -> hist_entry
end

val quantile : hist_entry -> float -> float option
(** Estimated q-quantile (q in [0,1]), by linear interpolation inside the
    log2 bucket holding the target rank, clamped to the observed
    [min,max].  A rank in the first bucket (values up to 2^-20, zeros
    included) reads as the observed minimum.  [None] on an empty
    histogram. *)

(** Minimal JSON tree, emitter and parser — enough to serialise snapshots
    and to validate emitted files without third-party dependencies. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  val to_string : t -> string
  (** Compact serialisation; strings are escaped, floats printed with
      [%.17g] so they round-trip.  NaN and infinities have no JSON
      representation and are emitted as [null]. *)

  val of_string : string -> (t, string) result
  (** Strict parser for the subset emitted by {!to_string} plus ordinary
      whitespace; numbers with [.], [e] or [E] parse as [Float].  Bare
      [nan]/[inf] tokens are rejected — they are not JSON. *)

  val member : string -> t -> t option
  (** Field lookup in an [Obj]; [None] elsewhere. *)
end

type snapshot = {
  counters : (string * int) list;  (** name-sorted *)
  histograms : (string * hist_entry) list;  (** name-sorted *)
}

val snapshot : unit -> snapshot
(** Consistent copy of every registered counter and histogram. *)

val diff : before:snapshot -> after:snapshot -> snapshot
(** Per-name subtraction ([after - before]); names missing from [before]
    count from zero, entries that did not move are dropped.  An entry
    that {e shrank} (the registry was {!reset} between the snapshots)
    never yields a negative delta: it is clamped out of the result and
    counted in a synthetic [obs.diff.regressed] counter so the window is
    visibly unsound rather than silently wrong.  Histogram min/max are
    not differencable and report the [after] values. *)

val reset : unit -> unit
(** Zero every registered counter and histogram (registrations survive). *)

val to_table : snapshot -> string
(** Human-readable table: counters and histograms with
    count/sum/min/p50/p90/p99/max; empty entries omitted. *)

val json_of_snapshot : snapshot -> Json.t
(** [{ "counters": { name: int, ... },
      "histograms": { name: { "count", "sum", "min", "max",
                              "buckets": [ { "le", "count" }, ... ] } } }]
    — bucket counts are per-bucket; the overflow bound serialises as the
    string ["+Inf"]. *)

val write_json_file : string -> Json.t -> unit
(** Serialise to a file (trailing newline included). *)

(** Prometheus text-exposition emitters ([# TYPE] line plus samples into
    a caller's buffer), for composing a metrics endpoint.  Metric names
    are used as given — pass them through {!Prometheus.sanitize} first
    when they come from registry names with dots. *)
module Prometheus : sig
  val sanitize : string -> string
  (** Replace every character outside [[a-zA-Z0-9_]] with [_]; prefix
      with [_] if the result starts with a digit. *)

  val counter : Buffer.t -> name:string -> float -> unit
  val gauge : Buffer.t -> name:string -> float -> unit

  val histogram : Buffer.t -> name:string -> hist_entry -> unit
  (** Cumulative [_bucket{le="..."}] samples (always ending with a
      [le="+Inf"] bucket equal to the count), then [_sum] and [_count]. *)

  val add_label : name:string -> value:string -> string -> string
  (** Inject [name="value"] into every sample line of an exposition text
      (prepended inside an existing [{...}] label set, or wrapping a bare
      metric name); comment lines pass through unchanged.  The fleet
      coordinator uses this to aggregate per-shard scrapes under
      [shard="..."] labels.  The label name is {!sanitize}d and the value
      backslash-escaped. *)
end

val to_prometheus : ?namespace:string -> snapshot -> string
(** The whole snapshot in Prometheus text exposition: every counter as
    [<ns>_<name>_total], every histogram as [<ns>_<name>] with
    cumulative buckets.  Names are sanitized (dots become underscores);
    [namespace] defaults to ["topoguard"]. *)

(** Structured spans exported as Chrome [trace_event] JSON (load the file
    in [about:tracing] or Perfetto).  Recording goes to a preallocated
    per-domain ring buffer — allocation-bounded, lock-free, domain-safe —
    so spans can wrap whole solves or single candidate verifications
    without perturbing what they measure.  Off by default; independent of
    {!set_enabled}.

    Timestamps come from {!Clock}, so binaries should install a wall
    clock before enabling.  When a ring wraps, the oldest events are
    overwritten (counted in {!dropped_events}); {!export_json} repairs
    the damage by dropping orphan ends and closing unfinished spans, so
    the exported stream always has balanced B/E pairs per thread. *)
module Trace : sig
  val set_enabled : bool -> unit
  val enabled : unit -> bool

  val set_capacity : int -> unit
  (** Events retained per domain ring (default 16384, min 16).  Affects
      rings created after the call — set it before enabling. *)

  val set_pid : int -> unit
  (** The process id stamped on exported events (default 1).  Binaries
      that may contribute to a cross-process merge should install their
      real [Unix.getpid ()] before enabling, so {!merge} keeps each
      process's spans on distinct rows. *)

  val new_trace_id : unit -> string
  (** A fresh trace id ([t<pid>-<n>]), unique within this process and —
      once {!set_pid} has run — across cooperating processes. *)

  val new_span_id : unit -> string
  (** A fresh span id ([s<pid>-<n>]), same uniqueness as trace ids. *)

  val set_context : (string * string) option -> unit
  (** Install [(trace id, parent span id)] as this domain's trace
      context: every event recorded while it is installed carries the
      pair as its ["trace"] / ["parent"] args (an empty string omits
      that arg).  Domain-local; [None] clears it. *)

  val get_context : unit -> (string * string) option

  val with_context : (string * string) option -> (unit -> 'a) -> 'a
  (** {!set_context} around the thunk, restoring the previous context
      even on exceptions — the propagation primitive the serve/cluster
      layers wrap around request handling and worker-job thunks. *)

  val begin_ : ?args:(string * string) list -> string -> unit
  (** Open a span on the current domain.  [args] become the Chrome event's
      [args] object (e.g. candidate index, threshold, equation tag). *)

  val end_ : string -> unit
  (** Close the innermost open span (the name is informational; nesting
      is positional, as in Chrome's B/E events). *)

  val with_span : ?args:(string * string) list -> string -> (unit -> 'a) -> 'a
  (** [begin_]/[end_] around the thunk, exception-safe. *)

  val instant : ?args:(string * string) list -> string -> unit
  (** A zero-duration marker event (phase ["i"]). *)

  val complete : ?args:(string * string) list -> ts:float -> dur:float -> string -> unit
  (** A complete event (phase ["X"]) with an explicit start (raw {!Clock}
      seconds) and duration — for spans whose start and end were observed
      on one domain but cannot nest, e.g. overlapping queue waits. *)

  val clear : unit -> unit
  val dropped_events : unit -> int

  val export_json : unit -> Json.t
  (** [{ "traceEvents": [...], "displayTimeUnit": "ms", "clockBaseUs": b }]
      with timestamps in microseconds relative to the earliest recorded
      event, [pid] from {!set_pid}, and [tid] the domain id.
      [clockBaseUs] is that earliest instant in absolute {!Clock}
      microseconds — what lets {!merge} put several processes' files on
      one timeline.  Call when recording is quiescent (events being
      written concurrently may be torn). *)

  val write_file : string -> unit
  (** {!export_json} serialised to a file. *)

  val merge : Json.t list -> (Json.t, string) result
  (** Stitch several per-process exports (parsed {!export_json} values)
      into one Chrome trace: every event is re-based through its file's
      [clockBaseUs] onto the globally earliest instant; pids, tids and
      args (including the ["trace"] correlation ids) pass through
      untouched.  Requires the processes to have shared a wall clock.
      [Error] names the first input lacking a [traceEvents] list.  The
      [tools/trace_merge.ml] CLI is a thin file-reading wrapper over
      this. *)
end
