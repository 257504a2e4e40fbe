module J = Obs.Json
module P = Serve.Protocol
module Front = Serve.Front

(* The fleet's front door: one process that speaks the same
   line-delimited JSON protocol as a shard, owns no store and no
   solver, and only decides *where* each request runs.

   Placement is the consistent-hash ring over the same canonical job
   keys the shards cache under, so a scenario always lands on the shard
   whose LRU/journal already holds it — shard affinity is cache
   affinity.  Job ids are rewritten at the boundary: clients hold
   coordinator ids, the coordinator retains each job's payload and
   placement, and shard-local ids never escape.  That retention is also
   the failover story: when a shard dies mid-conversation, the
   coordinator drops it from the ring (counting how many tracked keys
   changed owner) and transparently resubmits the retained payload to
   the new owner on the next status/result/wait touch.

   A [wait] is parked at the front door and relayed on a side
   connection to the owning shard, watched by the same select loop, so
   the coordinator never blocks on a job; a side connection that fails
   mid-wait is a dead shard, and the wait is re-parked on the new
   owner. *)

type config = {
  listen : Serve.Transport.endpoint;
  shards : (string * Serve.Transport.endpoint) list;
  vnodes : int;
  verbose : bool;
  max_line : int;
  access_log : string option;
  trace : string option;
}

let default_config ~listen ~shards =
  {
    listen;
    shards;
    vnodes = Ring.default_vnodes;
    verbose = false;
    max_line = P.Frame.default_max_line;
    access_log = None;
    trace = None;
  }

let c_requests = Obs.Counter.make "cluster.requests"
let c_batch_submitted = Obs.Counter.make "cluster.batch.submitted"
let c_batch_failed = Obs.Counter.make "cluster.batch.failed"
let c_keys_moved = Obs.Counter.make "cluster.ring.keys_moved"
let c_rebalances = Obs.Counter.make "cluster.ring.rebalances"
let h_route = Obs.Histogram.make "cluster.route.seconds"

(* a request without a trace context is minted one at the front door
   (when tracing is on), so a whole fleet run correlates even for v0
   clients *)
let door = Front.door ~name:"cluster" ~rid_prefix:"c" ~mint_trace:true ()

(* a routed job: enough to answer id-addressed verbs and to resubmit
   after a shard death *)
type job = {
  payload : P.submit;
  point : int option;  (* None when the grid did not parse *)
  mutable shard : string;
  mutable remote_id : int;
  mutable retired : bool;  (* a terminal status was relayed: in [t.retired] *)
}

type t = {
  cfg : config;
  mutable ring : Ring.t;
  shards : (string, Shard.t) Hashtbl.t;
  jobs : (int, job) Hashtbl.t;
  retired : int Queue.t;
      (* ids whose terminal status was relayed, oldest first; bounds
         [jobs] like the shards' own terminal-job retention *)
  retain : int;
  mutable waits : int;  (* parked waits: the drain answers them all *)
  mutable next_id : int;
  front : Front.t;
  mutable fwd_trace : (string * string) option;
      (* the trace context forwarded to shard calls of the request being
         handled: the incoming trace id with the coordinator's own span
         id as the new parent (single event-loop domain, so a plain
         mutable field is race-free) *)
  mutable last_shard : string option;
      (* the shard the current request was routed to, for the access log *)
}

let log t fmt = Front.log t.front fmt

(* ---- placement ---- *)

let point_of_submit s =
  match Grid.Spec.parse s.P.grid with
  | Ok spec -> Some (Store.Canonical.point (P.job_key spec s))
  | Error _ -> None (* the owning shard will report the parse error *)

let owner_name t point =
  match point with
  | Some p -> Ring.owner_point t.ring p
  | None -> ( match Ring.shards t.ring with [] -> None | s :: _ -> Some s)

(* drop a failed shard from the ring, counting how many of the
   currently tracked job keys changed owner — the rebalance metric the
   fleet smoke asserts on *)
let shard_down t sh =
  let name = Shard.name sh in
  Shard.mark_dead sh;
  if Ring.mem t.ring name then begin
    let before = t.ring in
    t.ring <- Ring.remove t.ring name;
    Obs.Counter.incr c_rebalances;
    let moved =
      Hashtbl.fold
        (fun _ job n ->
          match job.point with
          | Some p when Ring.owner_point before p <> Ring.owner_point t.ring p
            ->
            n + 1
          | _ -> n)
        t.jobs 0
    in
    Obs.Counter.add c_keys_moved moved;
    log t "shard %s dropped from ring (%d tracked key(s) moved, %d left)"
      name moved
      (List.length (Ring.shards t.ring))
  end

(* route one request to the owner of [point], failing over (and
   shrinking the ring) until a shard answers or none are left *)
let rec route_rpc t point req =
  match owner_name t point with
  | None -> Error "no live shards"
  | Some name -> (
    match Hashtbl.find_opt t.shards name with
    | None -> Error (Printf.sprintf "unknown shard %s" name)
    | Some sh -> (
      match Shard.request ?trace:t.fwd_trace sh req with
      | Ok resp ->
        t.last_shard <- Some name;
        Ok (name, resp)
      | Error e ->
        log t "shard %s failed: %s" name e;
        shard_down t sh;
        route_rpc t point req))

(* ---- verbs ---- *)

(* a job whose terminal status reached the client is only kept for a
   while: the newest [t.retain] of them (the shards' combined terminal
   retention); jobs still queued or running are never evicted *)
let note_terminal t id resp =
  match (J.member "status" resp, Hashtbl.find_opt t.jobs id) with
  | Some (J.String ("done" | "failed" | "cancelled" | "timeout")), Some job
    when not job.retired ->
    job.retired <- true;
    Queue.push id t.retired;
    while Queue.length t.retired > t.retain do
      Hashtbl.remove t.jobs (Queue.pop t.retired)
    done
  | _ -> ()

(* the shard's reply with the client's id in place of the shard-local
   one, noting a terminal status *)
let relay t resp id =
  let resp =
    match resp with
    | J.Obj fields ->
      J.Obj
        (List.map (fun (k, v) -> if k = "id" then (k, J.Int id) else (k, v)) fields)
    | other -> other
  in
  note_terminal t id resp;
  resp

(* a successful submit response names a shard-local id; retain the
   mapping and hand the client a coordinator id instead *)
let register t ~point ~payload ~shard resp =
  match (J.member "ok" resp, J.member "id" resp) with
  | Some (J.Bool true), Some (J.Int remote_id) ->
    let id = t.next_id in
    t.next_id <- id + 1;
    Hashtbl.replace t.jobs id { payload; point; shard; remote_id; retired = false };
    relay t resp id
  | _ -> resp (* parse error, queue_full, ... pass through untouched *)

let handle_submit t s =
  Obs.Histogram.time h_route @@ fun () ->
  let point = point_of_submit s in
  match route_rpc t point (P.Submit s) with
  | Error e -> Front.err e
  | Ok (shard, resp) -> register t ~point ~payload:s ~shard resp

(* fan a batch out one sub-batch per owning shard, gather, and
   reassemble the per-item responses in submission order.  A shard that
   dies mid-batch has its items re-grouped under the shrunk ring and
   redispatched, so a batch only loses items when no shards remain. *)
let handle_batch t items =
  Obs.Counter.add c_batch_submitted (List.length items);
  let slots = Array.make (List.length items) (Front.err "unrouted") in
  let rec dispatch pending =
    if pending <> [] then begin
      match Ring.shards t.ring with
      | [] ->
        List.iter
          (fun (i, _, _) -> slots.(i) <- Front.err "no live shards")
          pending
      | ring_shards ->
        (* grouped under the ring as it is now: a death below re-places
           only the dead shard's group *)
        let owned name = List.filter (fun (_, _, p) -> owner_name t p = Some name) pending in
        List.iter
          (fun (name, group) ->
            if group <> [] then (
              let sh = Hashtbl.find t.shards name in
              match
                Shard.request ?trace:t.fwd_trace sh
                  (P.Submit_batch (List.map (fun (_, s, _) -> s) group))
              with
              | Error e ->
                log t "batch to shard %s failed: %s" name e;
                shard_down t sh;
                dispatch group
              | Ok resp -> (
                match (J.member "ok" resp, J.member "results" resp) with
                | Some (J.Bool true), Some (J.List results)
                  when List.length results = List.length group ->
                  List.iter2
                    (fun (i, s, point) item_resp ->
                      slots.(i) <-
                        register t ~point ~payload:s ~shard:name item_resp)
                    group results
                | _ ->
                  (* a draining shard rejects the whole batch: treat it
                     like a death and re-place its items *)
                  log t "batch to shard %s rejected; re-routing" name;
                  shard_down t sh;
                  dispatch group)))
          (List.map (fun name -> (name, owned name)) ring_shards)
    end
  in
  dispatch (List.mapi (fun i s -> (i, s, point_of_submit s)) items);
  let results = Array.to_list slots in
  let failed = List.filter (fun r -> J.member "ok" r <> Some (J.Bool true)) results in
  Obs.Counter.add c_batch_failed (List.length failed);
  Front.ok [ ("results", J.List results) ]

(* the job's shard, when it is still alive and in the ring *)
let live_shard t job =
  match Hashtbl.find_opt t.shards job.shard with
  | Some sh when Shard.alive sh && Ring.mem t.ring job.shard -> Some sh
  | _ -> None

(* after its shard died: resubmit the retained payload to the current
   owner — the job restarts (losing any progress) on the new shard, or
   the reply that says why it could not *)
let resubmit t id job =
  log t "job %d: shard %s is gone, resubmitting" id job.shard;
  match route_rpc t job.point (P.Submit job.payload) with
  | Error e -> Error (Front.err e)
  | Ok (name, resp) -> (
    match (J.member "ok" resp, J.member "id" resp) with
    | Some (J.Bool true), Some (J.Int remote_id) ->
      job.shard <- name;
      job.remote_id <- remote_id;
      Ok ()
    | _ -> Error (relay t resp id))

(* id-addressed verbs (status/result/cancel): forward to the job's
   shard, translating ids both ways.  A dead shard triggers transparent
   resubmission, so the client never sees the seam. *)
let forward_job t id make_req =
  match Hashtbl.find_opt t.jobs id with
  | None -> Front.err (Printf.sprintf "unknown job %d" id)
  | Some job ->
    let rec forward () =
      match live_shard t job with
      | Some sh -> (
        match Shard.request ?trace:t.fwd_trace sh (make_req job.remote_id) with
        | Ok resp ->
          t.last_shard <- Some job.shard;
          relay t resp id
        | Error e ->
          log t "shard %s failed: %s" job.shard e;
          shard_down t sh;
          reroute ())
      | None -> reroute ()
    and reroute () =
      match resubmit t id job with Ok () -> forward () | Error resp -> resp
    in
    forward ()

(* ---- wait: parked here, relayed on a side connection ---- *)

type wait = {
  wid : int;
  wjob : job;
  deadline : float;  (* infinity: no timeout *)
  parked : Front.parked;
  trace : (string * string) option;  (* forwarded shard-ward *)
  ctx : (string * string) option;  (* the request's own, for the log *)
  mutable side : Shard.side option;  (* carrying it now *)
}

let end_side t w =
  match w.side with
  | Some side ->
    w.side <- None;
    Front.unwatch t.front (Shard.side_fd side);
    Some side
  | None -> None

(* the forwarded context carries the coordinator's own span id as the
   new parent; the span and the access log name the routed shard *)
let routed ~shard ~fwd ~ctx resp =
  let shard = Option.to_list shard in
  {
    Front.resp;
    span_args =
      List.map (fun s -> ("shard", s)) shard
      @ List.map (fun (_, span) -> ("span", span)) (Option.to_list fwd);
    log_fields =
      List.map (fun s -> ("shard", J.String s)) shard
      @ List.map (fun (id, _) -> ("trace", J.String id)) (Option.to_list ctx);
  }

let finish_wait t w ?shard resp =
  t.waits <- t.waits - 1;
  Front.answer t.front w.parked
    (routed ~shard ~fwd:w.trace ~ctx:w.ctx (relay t resp w.wid))

(* send the wait, with what is left of its timeout, to the job's shard;
   its reply arrives through [on_side] *)
let rec forward_wait t w =
  match live_shard t w.wjob with
  | None -> reroute_wait t w
  | Some sh -> (
    let timeout =
      if w.deadline = infinity then None
      else Some (Float.max 0. (w.deadline -. Obs.Clock.now ()))
    in
    let req = P.json_of_request (P.Wait (w.wjob.remote_id, timeout)) in
    match Shard.side_send sh (P.with_trace w.trace req) with
    | Error e ->
      log t "shard %s failed: %s" w.wjob.shard e;
      shard_down t sh;
      reroute_wait t w
    | Ok side ->
      w.side <- Some side;
      Front.watch t.front (Shard.side_fd side) (fun () -> on_side t w sh side))

and reroute_wait t w =
  match resubmit t w.wid w.wjob with
  | Ok () -> forward_wait t w
  | Error resp -> finish_wait t w resp

and on_side t w sh side =
  match Shard.side_read side with
  | `Pending -> ()
  | `Reply resp ->
    ignore (end_side t w);
    Shard.side_idle sh side;
    finish_wait t w ~shard:(Shard.name sh) resp
  | `Failed e ->
    ignore (end_side t w);
    Shard.close_side side;
    log t "shard %s failed mid-wait: %s" w.wjob.shard e;
    shard_down t sh;
    reroute_wait t w

let park_wait t ctx id job timeout =
  let deadline =
    match timeout with Some s -> Obs.Clock.now () +. s | None -> infinity
  in
  let trace = t.fwd_trace in
  Front.Park
    (fun parked ->
      let w = { wid = id; wjob = job; deadline; parked; trace; ctx; side = None } in
      t.waits <- t.waits + 1;
      forward_wait t w;
      (* the client left: closing the side connection releases the
         shard's parked entry too *)
      fun () ->
        t.waits <- t.waits - 1;
        Option.iter Shard.close_side (end_side t w))

let handle_stats t =
  let shard_stats (name, _) =
    let sh = Hashtbl.find t.shards name in
    if not (Shard.alive sh) then (name, Front.err "shard is dead")
    else (name, match Shard.request sh P.Stats with Ok resp -> resp | Error e -> Front.err e)
  in
  Front.ok
    [
      ( "ring",
        J.Obj
          [
            ( "shards",
              J.List (List.map (fun s -> J.String s) (Ring.shards t.ring)) );
            ("vnodes", J.Int (Ring.vnodes t.ring));
          ] );
      ( "jobs",
        J.Obj [ ("tracked", J.Int (Hashtbl.length t.jobs)); ("retain", J.Int t.retain) ] );
      ("shards", J.Obj (List.map shard_stats t.cfg.shards));
      ("snapshot", Obs.json_of_snapshot (Obs.snapshot ()));
    ]

(* aggregate scrape: every live shard's exposition relabeled under
   shard="name" (comment lines dropped — the same # TYPE would repeat
   per shard), then the coordinator's own registry (cluster.* series)
   unlabeled *)
let handle_metrics t =
  let buf = Buffer.create 8192 in
  List.iter
    (fun (name, _) ->
      let sh = Hashtbl.find t.shards name in
      if Shard.alive sh then
        match Shard.request sh P.Metrics with
        | Ok resp -> (
          match J.member "metrics" resp with
          | Some (J.String text) ->
            let labeled = Obs.Prometheus.add_label ~name:"shard" ~value:name text in
            List.iter
              (fun line -> if line <> "" && line.[0] <> '#' then Printf.bprintf buf "%s\n" line)
              (String.split_on_char '\n' labeled)
          | _ -> ())
        | Error e -> log t "metrics from shard %s failed: %s" name e)
    t.cfg.shards;
  Buffer.add_string buf (Obs.to_prometheus ~namespace:"topoguard" (Obs.snapshot ()));
  Front.ok [ ("metrics", J.String (Buffer.contents buf)) ]

let handle_request t ctx (req : P.request) =
  Obs.Counter.incr c_requests;
  (* applied after the verb ran, so [last_shard] is the routed one *)
  let reply resp =
    Front.Reply (routed ~shard:t.last_shard ~fwd:t.fwd_trace ~ctx resp)
  in
  match req with
  | P.Submit s ->
    reply (if Front.draining t.front then Front.err "draining" else handle_submit t s)
  | P.Submit_batch items ->
    reply (if Front.draining t.front then Front.err "draining" else handle_batch t items)
  | P.Status id -> reply (forward_job t id (fun rid -> P.Status rid))
  | P.Result id -> reply (forward_job t id (fun rid -> P.Result rid))
  | P.Cancel id -> reply (forward_job t id (fun rid -> P.Cancel rid))
  | P.Wait (id, timeout) -> (
    match Hashtbl.find_opt t.jobs id with
    | None -> reply (Front.err (Printf.sprintf "unknown job %d" id))
    | Some job -> park_wait t ctx id job timeout)
  | P.Sync _ -> reply (Front.err "the coordinator holds no store; sync a shard directly")
  | P.Stats -> reply (handle_stats t)
  | P.Metrics -> reply (handle_metrics t)
  | P.Shutdown ->
    (* the shards get the word as the drain tears down, below *)
    Front.drain t.front;
    reply (Front.ok [ ("draining", J.Bool true) ])

let handle t ctx parsed =
  t.last_shard <- None;
  t.fwd_trace <- Option.map (fun (id, _) -> (id, Obs.Trace.new_span_id ())) ctx;
  match parsed with
  | Error e -> Front.Reply (routed ~shard:None ~fwd:t.fwd_trace ~ctx (Front.err e))
  | Ok req -> handle_request t ctx req

let run (cfg : config) =
  let names = List.map fst cfg.shards in
  if List.length (List.sort_uniq String.compare names) <> List.length names
  then Error "duplicate shard names"
  else if names = [] then Error "a fleet needs at least one shard"
  else
    match
      Front.open_ door ~endpoint:cfg.listen ~max_line:cfg.max_line
        ~access_log:cfg.access_log ~trace:cfg.trace ~verbose:cfg.verbose
        ~log_prefix:"[fleet] "
    with
    | Error e -> Error e
    | Ok front ->
      let shards = Hashtbl.create (List.length cfg.shards) in
      List.iter
        (fun (name, ep) -> Hashtbl.replace shards name (Shard.make ~name ep))
        cfg.shards;
      let t =
        {
          cfg;
          ring = Ring.create ~vnodes:cfg.vnodes names;
          shards;
          jobs = Hashtbl.create 256;
          retired = Queue.create ();
          retain =
            List.length names
            * (Serve.Server.default_config ~socket_path:"").Serve.Server.max_terminal_jobs;
          waits = 0;
          next_id = 1;
          front;
          fwd_trace = None;
          last_shard = None;
        }
      in
      log t "coordinator on %s routing to %d shard(s)"
        (Serve.Transport.endpoint_to_string cfg.listen)
        (List.length names);
      Front.serve front ~handle:(handle t) ~finished:(fun () -> t.waits = 0) ();
      (* drain: the shutdown verb and SIGTERM both end up here *)
      Hashtbl.iter
        (fun _ sh ->
          if Shard.alive sh then ignore (Shard.request sh P.Shutdown);
          Shard.close sh)
        t.shards;
      log t "draining: %d job(s) routed" (t.next_id - 1);
      Front.close front;
      Ok ()
