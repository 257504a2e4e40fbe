module J = Obs.Json
module Q = Numeric.Rat
module I = Topoguard.Impact

type config = {
  socket_path : string;
  listen : Transport.endpoint option;
  jobs : int;
  queue_capacity : int;
  cache_bytes : int;
  journal : string option;
  default_timeout : float;
  max_terminal_jobs : int;
  verbose : bool;
  access_log : string option;
  trace : string option;
  sync_peers : Transport.endpoint list;
  sync_ranges : (int * int) list;
  max_line : int;
}

let default_config ~socket_path =
  {
    socket_path;
    listen = None;
    jobs = 1;
    queue_capacity = 64;
    cache_bytes = 64 * 1024 * 1024;
    journal = None;
    default_timeout = 300.;
    max_terminal_jobs = 1024;
    verbose = false;
    access_log = None;
    trace = None;
    sync_peers = [];
    sync_ranges = [];
    max_line = Protocol.Frame.default_max_line;
  }

let endpoint_of cfg =
  match cfg.listen with
  | Some e -> e
  | None -> Transport.Unix_sock cfg.socket_path

(* ---- observability ---- *)

let c_requests = Obs.Counter.make "serve.requests"
let c_submitted = Obs.Counter.make "serve.jobs.submitted"
let c_rejected = Obs.Counter.make "serve.jobs.rejected"
let c_cache_hits = Obs.Counter.make "serve.jobs.cache_hits"
let c_done = Obs.Counter.make "serve.jobs.done"
let c_failed = Obs.Counter.make "serve.jobs.failed"
let c_timeout = Obs.Counter.make "serve.jobs.timeout"
let c_cancelled = Obs.Counter.make "serve.jobs.cancelled"

(* a gauge maintained as +1/-1 updates of an atomic counter, so the queue
   depth shows up in the same snapshot as everything else *)
let c_depth = Obs.Counter.make "serve.queue.depth"

(* jobs that reached ANY terminal state (done, failed, timeout,
   cancelled — and cache hits, which are born terminal).  Incremented at
   exactly the points where the wait/service histograms are observed, so
   the service histogram's +Inf bucket count always equals this counter:
   a scrape can cross-check the two.  All the observation sites run on
   the event-loop domain, so a metrics reply sees them consistent. *)
let c_completed = Obs.Counter.make "serve.jobs.completed"
let c_batch_items = Obs.Counter.make "serve.batch.items"
let c_sync_served = Obs.Counter.make "serve.sync.entries_served"
let c_sync_pulled = Obs.Counter.make "serve.sync.entries_pulled"
let h_wait = Obs.Histogram.make "serve.job.wait_seconds"
let h_service = Obs.Histogram.make "serve.job.service_seconds"
let door = Front.door ~name:"serve" ~rid_prefix:"r" ()

(* ---- job records ---- *)

type job_state =
  | Queued
  | Running
  | Done
  | Failed of string
  | Cancelled
  | Timed_out

let state_string = function
  | Queued -> "queued"
  | Running -> "running"
  | Done -> "done"
  | Failed _ -> "failed"
  | Cancelled -> "cancelled"
  | Timed_out -> "timeout"

type job = {
  id : int;
  key : string;
  submit : Protocol.submit;
  spec : Grid.Spec.t;
  timeout : float;
  submitted_at : float;
  mutable started_at : float;
  mutable state : job_state;
  mutable result : J.t option;
  cancel : bool Atomic.t;
  deadline : float Atomic.t;
  finished : (J.t, exn) result option Atomic.t;
      (* the worker's outcome, published before it wakes the loop *)
  mutable waiters : (Front.parked * float) list;
      (* parked [wait] requests and their deadlines, answered when the
         job reaches a terminal state or a deadline passes *)
  trace : (string * string) option;
      (* the submitting request's trace context, re-installed around the
         worker-domain run so solver spans carry the originating id *)
}

(* ---- translation to the impact pipeline ---- *)

let mode_of = function
  | "state" -> Attack.Encoder.With_state_infection
  | "ufdi" -> Attack.Encoder.Ufdi_only
  | _ -> Attack.Encoder.Topology_only

let backend_of = function
  | "smt" -> I.Smt_bounded
  | "factors" -> I.Fast_factors
  | _ -> I.Lp_exact

let base_kind_of = function
  | "opf" -> `Opf
  | "proportional" -> `Proportional
  | _ -> `Case_study

let qs v = Q.to_decimal_string ~digits:6 v

let one_based l = J.List (List.map (fun i -> J.Int (i + 1)) l)

let json_of_outcome (outcome : I.outcome) =
  match outcome with
  | I.Attack_found s ->
    let v = s.I.vector in
    J.Obj
      [
        ("outcome", J.String "attack_found");
        ("candidates", J.Int s.I.candidates);
        ("base_cost", J.String (qs s.I.base_cost));
        ("threshold", J.String (qs s.I.threshold));
        ( "poisoned_cost",
          match s.I.poisoned_cost with
          | Some c -> J.String (qs c)
          | None -> J.Null );
        ("excluded", one_based v.Attack.Vector.excluded);
        ("included", one_based v.Attack.Vector.included);
        ("altered", one_based v.Attack.Vector.altered);
        ("buses", one_based v.Attack.Vector.buses);
      ]
  | I.No_attack { candidates } ->
    J.Obj
      [ ("outcome", J.String "no_attack"); ("candidates", J.Int candidates) ]
  | I.Base_infeasible e ->
    J.Obj [ ("outcome", J.String "base_infeasible"); ("error", J.String e) ]

(* runs on a pool worker domain *)
let execute ~store (job : job) =
  let interrupt () =
    Atomic.get job.cancel || Obs.Clock.now () > Atomic.get job.deadline
  in
  if interrupt () then raise I.Interrupted;
  let submit = job.submit in
  let spec =
    match submit.Protocol.increase with
    | None -> job.spec
    | Some pct ->
      {
        job.spec with
        Grid.Spec.min_increase_pct = Q.of_decimal_string pct;
      }
  in
  let base =
    match
      I.base_state ~store (base_kind_of submit.Protocol.base) spec.Grid.Spec.grid
    with
    | Ok b -> b
    | Error e -> failwith ("base state: " ^ e)
  in
  let config =
    {
      I.default_config with
      I.mode = mode_of submit.Protocol.mode;
      backend = backend_of submit.Protocol.backend;
      max_candidates = submit.Protocol.max_candidates;
      use_closed_form = submit.Protocol.single_line;
      max_topology_changes =
        (if submit.Protocol.single_line then Some 1
         else I.default_config.I.max_topology_changes);
      jobs = 1;
      interrupt = Some interrupt;
      store = Some store;
    }
  in
  json_of_outcome (I.analyze ~config ~scenario:spec ~base ())

(* ---- the server ---- *)

type t = {
  cfg : config;
  store : Store.Cache.t;
  pool : Pool.t;
  jobs_tbl : (int, job) Hashtbl.t;
  pending : int Queue.t;
  terminal : int Queue.t;
      (* ids of finished jobs, oldest first; bounds jobs_tbl *)
  mutable running : int list;
  mutable next_id : int;
  front : Front.t;
  started_at : float;
}

let log t fmt = Front.log t.front fmt
let now () = Obs.Clock.now ()

let reply_of resp =
  (* the access log's request line names the job a response is about *)
  let opt name = match J.member name resp with Some v -> [ (name, v) ] | None -> [] in
  { (Front.reply resp) with Front.log_fields = opt "id" @ opt "key" @ opt "cached" }

(* terminal jobs stay queryable by id for a while, but a resident server
   must not grow without bound: only the newest cfg.max_terminal_jobs are
   retained (a status/result request for an evicted id reports it as
   unknown — the result itself lives on in the store, by key) *)
let remember_terminal t id =
  Queue.push id t.terminal;
  while Queue.length t.terminal > t.cfg.max_terminal_jobs do
    Hashtbl.remove t.jobs_tbl (Queue.pop t.terminal)
  done

let job_status_json (j : job) =
  let base =
    [
      ("id", J.Int j.id);
      ("status", J.String (state_string j.state));
      ("key", J.String j.key);
    ]
  in
  match j.state with
  | Failed e -> base @ [ ("error", J.String e) ]
  | _ -> base

(* the answer to [result], and to a [wait] when it ends *)
let result_json (job : job) =
  match (job.state, job.result) with
  | Done, Some result -> Front.ok (job_status_json job @ [ ("result", result) ])
  | Done, None -> Front.err "result missing"
  | (Queued | Running | Failed _ | Cancelled | Timed_out), _ ->
    Front.ok (job_status_json job)

(* single bottleneck for a job reaching a terminal state: the wait and
   service histograms and the completed counter move in lockstep here
   (the invariant behind the metrics cross-check), the access log gets
   its "job" record, and every parked [wait] on the job is answered *)
let job_terminal t (job : job) ~wait ~service =
  Obs.Histogram.observe h_wait wait;
  Obs.Histogram.observe h_service service;
  Obs.Counter.incr c_completed;
  remember_terminal t job.id;
  Front.log_access t.front
    [
      ("kind", J.String "job");
      ("id", J.Int job.id);
      ("key", J.String job.key);
      ("status", J.String (state_string job.state));
      ("queue_wait_s", J.Float wait);
      ("service_s", J.Float service);
    ];
  let waiters = job.waiters in
  job.waiters <- [];
  List.iter (fun (p, _) -> Front.answer t.front p (reply_of (result_json job))) waiters

let queue_depth t =
  Queue.fold
    (fun acc id ->
      match Hashtbl.find_opt t.jobs_tbl id with
      | Some j when j.state = Queued -> acc + 1
      | _ -> acc)
    0 t.pending

let handle_submit t (s : Protocol.submit) =
  if Front.draining t.front then Front.err "draining"
  else
    match Grid.Spec.parse s.Protocol.grid with
    | Error e -> Front.err ("parse: " ^ e)
    | Ok spec -> (
      let key = Protocol.job_key spec s in
      let timeout =
        if s.Protocol.timeout > 0. then s.Protocol.timeout
        else t.cfg.default_timeout
      in
      Obs.Counter.incr c_submitted;
      let cached =
        match Store.Cache.find t.store key with
        | None -> None
        | Some raw -> (
          match J.of_string raw with
          | Ok result -> Some result
          | Error _ ->
            (* an unreadable cached value is a miss: drop it and fall
               through to the enqueue path, so the submission recomputes
               (and re-stores) instead of failing on every retry until
               the entry happens to be evicted *)
            Store.Cache.remove t.store key;
            log t "dropped corrupt cache entry (key %s)" key;
            None)
      in
      let add_job state result =
        let id = t.next_id in
        t.next_id <- id + 1;
        let submitted_at = now () in
        let job =
          {
            id;
            key;
            submit = s;
            spec;
            timeout;
            submitted_at;
            started_at = (if state = Done then submitted_at else 0.);
            state;
            result;
            cancel = Atomic.make false;
            deadline = Atomic.make infinity;
            finished = Atomic.make None;
            waiters = [];
            trace = Obs.Trace.get_context ();
          }
        in
        Hashtbl.replace t.jobs_tbl id job;
        job
      in
      let accepted job =
        Front.ok
          [
            ("id", J.Int job.id);
            ("status", J.String (state_string job.state));
            ("cached", J.Bool (job.state = Done));
            ("key", J.String key);
          ]
      in
      match cached with
      | Some result ->
        (* answered entirely from the store: no queue slot, no solver *)
        Obs.Counter.incr c_cache_hits;
        let job = add_job Done (Some result) in
        Obs.Counter.incr c_done;
        (* born terminal: it never waited and never ran *)
        job_terminal t job ~wait:0. ~service:0.;
        accepted job
      | None ->
        if queue_depth t >= t.cfg.queue_capacity then begin
          Obs.Counter.incr c_rejected;
          Front.err ~retry_after:1.0 "queue_full"
        end
        else begin
          let job = add_job Queued None in
          Queue.push job.id t.pending;
          Obs.Counter.add c_depth 1;
          log t "job %d queued (key %s)" job.id key;
          accepted job
        end)

let with_job t id f =
  match Hashtbl.find_opt t.jobs_tbl id with
  | None -> Front.err (Printf.sprintf "unknown job %d" id)
  | Some job -> f job

let handle_cancel t id =
  with_job t id @@ fun job ->
    match job.state with
    | Queued ->
      job.state <- Cancelled;
      Obs.Counter.incr c_cancelled;
      Obs.Counter.add c_depth (-1);
      job_terminal t job ~wait:(now () -. job.submitted_at) ~service:0.;
      log t "job %d cancelled while queued" id;
      Front.ok (job_status_json job)
    | Running ->
      (* cooperative: the worker observes the flag at its next probe *)
      Atomic.set job.cancel true;
      Front.ok (job_status_json job)
    | Done | Failed _ | Cancelled | Timed_out -> Front.ok (job_status_json job)

(* a wait on a job that is still queued or running parks until
   [job_terminal] or the tick's [expire_waits] answers it; anything else
   is answered like [result] *)
let handle_wait t id timeout =
  let deadline = match timeout with Some s -> now () +. s | None -> infinity in
  match Hashtbl.find_opt t.jobs_tbl id with
  | Some job when (job.state = Queued || job.state = Running) && deadline > now () ->
    Front.Park
      (fun p ->
        job.waiters <- (p, deadline) :: job.waiters;
        fun () -> job.waiters <- List.filter (fun (p', _) -> p' != p) job.waiters)
  | _ -> Front.Reply (reply_of (with_job t id result_json))

let stats_json t =
  Front.ok
    [
      ( "queue",
        J.Obj
          [
            ("depth", J.Int (queue_depth t));
            ("running", J.Int (List.length t.running));
            ("capacity", J.Int t.cfg.queue_capacity);
          ] );
      ( "jobs",
        J.Obj
          [
            ("submitted", J.Int (Obs.Counter.get c_submitted));
            ("done", J.Int (Obs.Counter.get c_done));
            ("failed", J.Int (Obs.Counter.get c_failed));
            ("timeout", J.Int (Obs.Counter.get c_timeout));
            ("cancelled", J.Int (Obs.Counter.get c_cancelled));
            ("rejected", J.Int (Obs.Counter.get c_rejected));
            ("cache_hits", J.Int (Obs.Counter.get c_cache_hits));
          ] );
      ("store", Store.Cache.stats_json t.store);
      ("snapshot", Obs.json_of_snapshot (Obs.snapshot ()));
    ]

(* Prometheus text exposition: curated job/request series first (stable
   names a dashboard can rely on), then the whole registry under the
   generic mapping.  The generic names all embed their subsystem prefix
   (topoguard_serve_..., topoguard_smt_...), so nothing collides with
   the curated names.  One snapshot backs the curated counters and
   histograms, so the cross-check invariant — the service histogram's
   +Inf bucket equals topoguard_jobs_completed_total — holds within a
   single scrape. *)
let empty_hist =
  { Obs.h_count = 0; h_sum = 0.; h_min = None; h_max = None; h_buckets = [] }

let metrics_text t =
  let snap = Obs.snapshot () in
  let buf = Buffer.create 4096 in
  let c name =
    float_of_int (Option.value ~default:0 (List.assoc_opt name snap.Obs.counters))
  in
  List.iter
    (fun (metric, src) -> Obs.Prometheus.counter buf ~name:metric (c src))
    [
      ("topoguard_requests_total", "serve.requests");
      ("topoguard_jobs_submitted_total", "serve.jobs.submitted");
      ("topoguard_jobs_completed_total", "serve.jobs.completed");
      ("topoguard_jobs_done_total", "serve.jobs.done");
      ("topoguard_jobs_failed_total", "serve.jobs.failed");
      ("topoguard_jobs_timeout_total", "serve.jobs.timeout");
      ("topoguard_jobs_cancelled_total", "serve.jobs.cancelled");
      ("topoguard_jobs_rejected_total", "serve.jobs.rejected");
      ("topoguard_jobs_cache_hits_total", "serve.jobs.cache_hits");
    ];
  Obs.Prometheus.gauge buf ~name:"topoguard_queue_depth"
    (float_of_int (queue_depth t));
  Obs.Prometheus.gauge buf ~name:"topoguard_jobs_running"
    (float_of_int (List.length t.running));
  Obs.Prometheus.gauge buf ~name:"topoguard_uptime_seconds"
    (now () -. t.started_at);
  List.iter
    (fun (metric, src) ->
      Obs.Prometheus.histogram buf ~name:metric
        (Option.value ~default:empty_hist
           (List.assoc_opt src snap.Obs.histograms)))
    [
      ("topoguard_job_wait_seconds", "serve.job.wait_seconds");
      ("topoguard_job_service_seconds", "serve.job.service_seconds");
      ("topoguard_request_seconds", "serve.request.seconds");
    ];
  Buffer.add_string buf (Obs.to_prometheus ~namespace:"topoguard" snap);
  Buffer.contents buf

(* the export side of a peer's warm-start pull: every resident job:,
   verify: and base: entry whose ring point falls inside the requested
   ranges (inclusive; empty = everything).  Values are opaque — the peer
   inserts them into its own store (journaling them) without decoding. *)
let handle_sync t ranges =
  let in_ranges key =
    ranges = []
    || (let p = Store.Canonical.point key in
        List.exists (fun (lo, hi) -> lo <= p && p <= hi) ranges)
  in
  let wanted key =
    List.exists
      (fun prefix -> String.starts_with ~prefix key)
      [ "job:"; "verify:"; "base:" ]
  in
  let entries =
    Store.Cache.fold t.store ~init:[] ~f:(fun acc ~key ~value ->
        if wanted key && in_ranges key then
          J.List [ J.String key; J.String value ] :: acc
        else acc)
  in
  Obs.Counter.add c_sync_served (List.length entries);
  Front.ok [ ("entries", J.List (List.rev entries)) ]

let handle_request t (req : Protocol.request) =
  Obs.Counter.incr c_requests;
  let reply resp = Front.Reply (reply_of resp) in
  match req with
  | Protocol.Submit s -> reply (handle_submit t s)
  | Protocol.Submit_batch items ->
    (* one connection, many scenarios: each item gets its own submit
       response (id/cached or error) in submission order; the batch
       itself only fails on transport problems *)
    Obs.Counter.add c_batch_items (List.length items);
    reply
      (Front.ok
         [ ("results", J.List (List.map (fun s -> handle_submit t s) items)) ])
  | Protocol.Sync ranges -> reply (handle_sync t ranges)
  | Protocol.Status id ->
    reply (with_job t id (fun job -> Front.ok (job_status_json job)))
  | Protocol.Result id -> reply (with_job t id result_json)
  | Protocol.Wait (id, timeout) -> handle_wait t id timeout
  | Protocol.Cancel id -> reply (handle_cancel t id)
  | Protocol.Stats -> reply (stats_json t)
  | Protocol.Metrics -> reply (Front.ok [ ("metrics", J.String (metrics_text t)) ])
  | Protocol.Shutdown ->
    Front.drain t.front;
    reply (Front.ok [ ("draining", J.Bool true) ])

let handle t _ctx parsed =
  match parsed with
  | Error e -> Front.Reply (reply_of (Front.err e))
  | Ok req -> handle_request t req

(* ---- scheduling ---- *)

let start_ready_jobs t =
  while
    List.length t.running < t.cfg.jobs && not (Queue.is_empty t.pending)
  do
    let id = Queue.pop t.pending in
    match Hashtbl.find_opt t.jobs_tbl id with
    | Some job when job.state = Queued ->
      Obs.Counter.add c_depth (-1);
      job.state <- Running;
      job.started_at <- now ();
      Atomic.set job.deadline (job.started_at +. job.timeout);
      let wait = job.started_at -. job.submitted_at in
      (* queue waits of different jobs overlap freely, so this cannot be
         a nested B/E span — emit a complete event instead *)
      Obs.Trace.complete
        ~args:[ ("id", string_of_int id) ]
        ~ts:job.submitted_at ~dur:wait "serve.job.queued";
      (* the pool always has >= 2 worker domains (see [run]), and we
         never submit more than cfg.jobs concurrently, so this cannot
         execute on the event-loop domain.  The outcome is published on
         the job before the wake: the pool fills its own future only
         after this closure returns, too late for the reap the wake
         triggers *)
      ignore
        (Pool.async t.pool (fun () ->
             (* re-install the submitting request's trace context on the
                worker domain: the run span and every solver span under
                it (lp/smt minimize) inherit the originating id *)
             let outcome =
               match
                 Obs.Trace.with_context job.trace (fun () ->
                     Obs.Trace.with_span "serve.job.run"
                       ~args:[ ("id", string_of_int job.id); ("key", job.key) ]
                       (fun () -> execute ~store:t.store job))
               with
               | result -> Ok result
               | exception e -> Error e
             in
             Atomic.set job.finished (Some outcome);
             Front.wake t.front));
      t.running <- id :: t.running;
      log t "job %d started (timeout %.3fs)" id job.timeout
    | _ -> () (* cancelled while queued: already accounted *)
  done

let reap_finished t =
  let still_running = ref [] in
  List.iter
    (fun id ->
      match Hashtbl.find_opt t.jobs_tbl id with
      | None -> ()
      | Some job -> (
        match Atomic.get job.finished with
        | None -> still_running := id :: !still_running
        | Some outcome ->
          let service = now () -. job.started_at in
          (match outcome with
          | Ok result ->
            job.state <- Done;
            job.result <- Some result;
            Store.Cache.add t.store ~key:job.key ~value:(J.to_string result);
            Obs.Counter.incr c_done;
            log t "job %d done" job.id
          | Error I.Interrupted ->
            if Atomic.get job.cancel then begin
              job.state <- Cancelled;
              Obs.Counter.incr c_cancelled;
              log t "job %d cancelled" job.id
            end
            else begin
              job.state <- Timed_out;
              Obs.Counter.incr c_timeout;
              log t "job %d timed out" job.id
            end
          | Error e ->
            job.state <- Failed (Printexc.to_string e);
            Obs.Counter.incr c_failed;
            log t "job %d failed: %s" job.id (Printexc.to_string e));
          job_terminal t job
            ~wait:(job.started_at -. job.submitted_at)
            ~service))
    t.running;
  t.running <- !still_running

(* a parked wait whose deadline passed is answered with the job's
   current status; only queued and running jobs have waiters *)
let expire_waits t =
  let at = now () in
  let expire id =
    match Hashtbl.find_opt t.jobs_tbl id with
    | Some job when job.waiters <> [] ->
      let expired, live = List.partition (fun (_, d) -> d <= at) job.waiters in
      job.waiters <- live;
      List.iter (fun (p, _) -> Front.answer t.front p (reply_of (result_json job))) expired
    | _ -> ()
  in
  Queue.iter expire t.pending;
  List.iter expire t.running

(* ---- warm start: pull this shard's key ranges from peer journals ---- *)

(* a restarted shard rejoins warm: after replaying its own journal it
   asks each peer for the job:/verify:/base: entries of its ring ranges
   and inserts them (journaling them locally, so the next restart needs
   no peers).  Peer failures are logged and skipped — a missing peer
   only costs cache warmth, never startup. *)
let warm_from_peers t =
  List.iter
    (fun peer ->
      let peer_name = Transport.endpoint_to_string peer in
      match Client.connect_endpoint peer with
      | Error e -> log t "sync peer %s: %s" peer_name e
      | Ok c ->
        (match Client.sync c ~ranges:t.cfg.sync_ranges with
        | Error e -> log t "sync pull from %s failed: %s" peer_name e
        | Ok entries ->
          List.iter (fun (key, value) -> Store.Cache.add t.store ~key ~value) entries;
          Obs.Counter.add c_sync_pulled (List.length entries);
          log t "warmed %d entr(y/ies) from %s" (List.length entries) peer_name);
        Client.close c)
    t.cfg.sync_peers

(* ---- lifecycle ---- *)

let run cfg =
  match Store.Cache.create ~max_bytes:cfg.cache_bytes ?journal:cfg.journal () with
  | Error e -> Error e
  | Ok store -> (
    let endpoint = endpoint_of cfg in
    match
      Front.open_ door ~endpoint ~max_line:cfg.max_line
        ~access_log:cfg.access_log ~trace:cfg.trace ~verbose:cfg.verbose
        ~log_prefix:"topoguard-serve: "
    with
    | Error e ->
      Store.Cache.close store;
      Error e
    | Ok front ->
      let t =
        {
          cfg;
          store;
          pool = Pool.create ~jobs:(max 2 cfg.jobs) ();
          jobs_tbl = Hashtbl.create 64;
          pending = Queue.create ();
          terminal = Queue.create ();
          running = [];
          next_id = 1;
          front;
          started_at = now ();
        }
      in
      warm_from_peers t;
      log t "listening on %s (%d worker(s), queue %d)"
        (Transport.endpoint_to_string endpoint)
        cfg.jobs cfg.queue_capacity;
      Front.serve front ~handle:(handle t)
        ~tick:(fun () ->
          reap_finished t;
          expire_waits t;
          start_ready_jobs t)
        ~finished:(fun () -> t.running = [] && queue_depth t = 0)
        ();
      log t "drained: %d job(s) served" (t.next_id - 1);
      Pool.shutdown t.pool;
      Store.Cache.close store;
      Front.close front;
      Ok ())
