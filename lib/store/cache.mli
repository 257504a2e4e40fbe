(** The content-addressed result store: a byte-budget {!Lru} front,
    an optional append-only {!Journal} behind it, and [Obs] counters
    ([store.hit] / [store.miss] / [store.evict] / [store.insert] /
    [store.journal.recovered] / [store.journal.dropped_bytes]).

    Keys are opaque strings — callers derive them from {!Canonical} and
    namespace them (the scenario service uses [job:<hash>], the impact
    loop [verify:<hash>] and [base:<tag>:...]).  Values are opaque byte
    strings.

    Thread-safe: one mutex serialises LRU mutation and journal appends,
    so pool workers (verification caching) and the server loop can share
    one store.

    Persistence semantics: every insert is appended to the journal; on
    {!create} the journal is replayed oldest-first into the LRU (so the
    newest entries win the byte budget).  Evictions do {e not} rewrite
    the journal — a restart may therefore resurrect evicted entries, by
    design (the journal is the capacity of record, the LRU only a
    byte-bounded working set). *)

type t

val create : ?max_bytes:int -> ?journal:string -> unit -> (t, string) result
(** [max_bytes] defaults to 64 MiB.  [journal] enables persistence; a
    corrupt journal tail is recovered-and-truncated, but a file that is
    not a journal at all yields [Error]. *)

val find : t -> string -> string option
(** Counts [store.hit] / [store.miss]. *)

val add : t -> key:string -> value:string -> unit
(** Insert (idempotent: a key already resident is not re-journaled);
    evictions count [store.evict]. *)

val remove : t -> string -> unit
(** Drop one entry from the LRU (used to shed a value that fails to
    decode, so the next submission recomputes it).  The journal is
    append-only and is {e not} rewritten: a removed entry can resurrect
    on restart until a later insert of the same key supersedes it during
    replay. *)

val fold : t -> init:'a -> f:('a -> key:string -> value:string -> 'a) -> 'a
(** Fold over every resident entry (most recently used first) under the
    store mutex, without promoting anything.  This is the export side of
    the fleet's [sync] verb: a peer answers a restarted shard's key-range
    pull by filtering this enumeration.  [f] must not call back into the
    same store (the mutex is held). *)

val length : t -> int
val bytes : t -> int
val recovered : t -> int
(** Records replayed from the journal at {!create} time. *)

val stats_json : t -> Obs.Json.t
(** [{ "entries": n, "bytes": b, "max_bytes": m, "recovered": r }] *)

val close : t -> unit
