(* load-smoke: sustained-load SLO gate for the fleet, end to end against
   the real CLI binary.

   A 3-shard loopback fleet (with --trace and --access-log wired
   through) is driven open-loop by Cluster.Loadgen at a fixed arrival
   rate with an 80/20 warm/cold scenario mix.  The gate asserts the p99
   story: every offered arrival accepted and answered (zero lost, zero
   errors), p99 end-to-end latency under a generous ceiling, queue depth
   bounded by the shards' queue capacity throughout, no client-side
   sleep on the await path (Client.await is one blocking wait, so the
   client.await.backoff.seconds histogram stays empty), and a report
   with nonempty latency histograms written to BENCH_load.json.

   Then one traced submission crosses the whole fleet, the fleet is
   drained (each process writes its own trace file), and the per-process
   files are stitched with Obs.Trace.merge: the client's submit span,
   the coordinator's cluster.request span, the shard's serve.job.run and
   its nested lp minimize spans must all carry the one client-minted
   trace id across at least three distinct pids — the distributed
   tracing acceptance check.

   CI entry point: dune build @load-smoke *)

module J = Obs.Json
module P = Serve.Protocol

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("load-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name
let fleet_sock = tmp (Printf.sprintf "tg-load-%d.sock" (Unix.getpid ()))
let fleet_log = tmp (Printf.sprintf "tg-load-%d.log" (Unix.getpid ()))
let trace_base = tmp (Printf.sprintf "tg-load-%d.trace.json" (Unix.getpid ()))
let access_base = tmp (Printf.sprintf "tg-load-%d.access.log" (Unix.getpid ()))
let client_trace = tmp (Printf.sprintf "tg-load-%d.client.json" (Unix.getpid ()))
let base_port = 22100 + (Unix.getpid () mod 20000)
let host = "127.0.0.1"
let n_shards = 3
let shard_queue_cap = 64 (* the serve default each shard runs with *)

let shard_names = List.init n_shards (Printf.sprintf "shard-%d")
let shard_suffixed base = List.map (fun n -> base ^ "." ^ n) shard_names

let cleanup () =
  List.iter
    (fun p -> if Sys.file_exists p then try Sys.remove p with Sys_error _ -> ())
    ([ fleet_sock; fleet_log; trace_base; access_base; client_trace ]
    @ shard_suffixed trace_base @ shard_suffixed access_base)

let grid5 = Grid.Spec.print (Grid.Test_systems.case_study_1 ())

let sub ?increase () =
  {
    P.grid = grid5;
    mode = "topo";
    base = "proportional";
    increase;
    max_candidates = 20;
    single_line = true;
    backend = "lp";
    timeout = 0.;
  }

(* warm set: three scenarios that repeat (the cache-hit path); cold set:
   distinct cost-increase targets, each with its own job key *)
let warm = List.map (fun i -> sub ~increase:(string_of_int i) ()) [ 1; 2; 3 ]

let cold =
  List.init 120 (fun i -> sub ~increase:(Printf.sprintf "4.%03d" i) ())

(* ---- child process ---- *)

let spawn argv log_file =
  let log_fd =
    Unix.openfile log_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process argv.(0) argv null log_fd log_fd in
  Unix.close null;
  Unix.close log_fd;
  pid

(* SIGTERM [pid] and reap it; false if it is still running after 20 s *)
let stopped_by_sigterm pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 20. in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      wait ()
    | 0, _ -> false
    | _ -> true
    | exception Unix.Unix_error _ -> true
  in
  wait ()

let dump_log file =
  if Sys.file_exists file then begin
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    prerr_string (really_input_string ic n);
    close_in ic
  end

let connect_retry endpoint =
  let rec go n =
    match Serve.Client.connect_endpoint endpoint with
    | Ok c -> c
    | Error e ->
      if n = 0 then begin
        dump_log fleet_log;
        fail "connect %s: %s" (Serve.Transport.endpoint_to_string endpoint) e
      end
      else begin
        Unix.sleepf 0.05;
        go (n - 1)
      end
  in
  go 200

(* ---- JSON helpers ---- *)

let read_json path =
  if not (Sys.file_exists path) then fail "expected trace file %s" path;
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  match J.of_string s with
  | Ok j -> j
  | Error e -> fail "%s: %s" path e

let str_member name j =
  match J.member name j with Some (J.String s) -> s | _ -> ""

let hist_count name (r : Cluster.Loadgen.report) =
  match List.assoc_opt name r.Cluster.Loadgen.latency with
  | Some h -> h.Obs.h_count
  | None -> 0

let () =
  let cli =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else fail "usage: load_smoke <topoguard-cli>"
  in
  let t0 = Unix.gettimeofday () in
  cleanup ();
  at_exit cleanup;

  (* 1. the fleet under test, with tracing and access logs on *)
  let fleet_pid =
    spawn
      [|
        cli; "fleet"; "--listen"; "unix:" ^ fleet_sock;
        "--shards"; string_of_int n_shards; "--host"; host;
        "--base-port"; string_of_int base_port; "--jobs"; "2";
        "--trace"; trace_base; "--access-log"; access_base;
      |]
      fleet_log
  in
  let fleet_done = ref false in
  let kill_fleet () =
    if not !fleet_done then
      (* SIGTERM drains the fleet, which stops and reaps its shards; one
         that does not exit in time has each shard asked to drain (they
         outlive a killed coordinator) before the coordinator is killed *)
      if not (stopped_by_sigterm fleet_pid) then begin
        List.iter
          (fun i ->
            match Serve.Client.connect_endpoint (Serve.Transport.Tcp (host, base_port + i)) with
            | Ok c ->
              ignore (Serve.Client.request c P.Shutdown);
              Serve.Client.close c
            | Error _ -> ())
          (List.init n_shards Fun.id);
        (try Unix.kill fleet_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] fleet_pid) with Unix.Unix_error _ -> ())
      end
  in
  (* [fail] exits without unwinding, so the clean-up runs from at_exit *)
  at_exit kill_fleet;
  let probe = connect_retry (Serve.Transport.Unix_sock fleet_sock) in
  Serve.Client.close probe;

  (* 2. sustained open-loop load: 30/s for 3 s over 4 client domains *)
  let cfg =
    {
      (Cluster.Loadgen.default_config
         ~endpoint:(Serve.Transport.Unix_sock fleet_sock)
         ~warm ~cold)
      with
      Cluster.Loadgen.rate = 30.;
      duration = 3.;
      clients = 4;
      warm_pct = 80;
      sample_every = 0.1;
      await_timeout = 60.;
    }
  in
  let r =
    match Cluster.Loadgen.run cfg with
    | Ok r -> r
    | Error e -> fail "loadgen: %s" e
  in
  let open Cluster.Loadgen in
  let offered_target = 90 in
  if r.offered <> offered_target then
    fail "offered %d arrivals, expected %d" r.offered offered_target;
  if r.errors <> 0 then fail "%d transport/reject error(s)" r.errors;
  if r.failed <> 0 then fail "%d job(s) ended failed/timeout" r.failed;
  if r.lost <> 0 then fail "%d accepted job(s) lost (no terminal answer)" r.lost;
  if r.accepted <> r.offered then
    fail "accepted %d of %d offered" r.accepted r.offered;
  if r.completed <> r.accepted then
    fail "completed %d of %d accepted" r.completed r.accepted;
  if r.cached = 0 then fail "warm mix produced no cache hits";
  if r.achieved_rate < 0.5 *. cfg.rate then
    fail "achieved only %.1f/s of the %.1f/s target" r.achieved_rate cfg.rate;

  (* latency: histograms must be populated, p99 under a generous ceiling *)
  let submit_n = hist_count "loadgen.submit.seconds" r in
  let e2e_n = hist_count "loadgen.e2e.seconds" r in
  if submit_n = 0 then fail "empty loadgen.submit.seconds histogram";
  if e2e_n = 0 then fail "empty loadgen.e2e.seconds histogram";
  let p99 =
    match List.assoc_opt "loadgen.e2e.seconds" r.latency with
    | Some h -> Option.value ~default:infinity (Obs.quantile h 0.99)
    | None -> infinity
  in
  if p99 > 10. then fail "p99 end-to-end latency %.3fs over the 10s ceiling" p99;
  (* Loadgen honours retry_after with its own sleep, so only Client.await
     could feed this histogram: a sample means polling came back *)
  let backoff_n = hist_count "client.await.backoff.seconds" r in
  if backoff_n <> 0 then
    fail "%d client backoff sleep(s) in the load window: Client.await polls" backoff_n;

  (* queue depth: sampled, and bounded by the shards' queue capacity *)
  if r.samples = [] then fail "no queue-depth samples collected";
  List.iter
    (fun s ->
      if s.depth > n_shards * shard_queue_cap then
        fail "queue depth %d at %.2fs exceeds the fleet capacity %d" s.depth
          s.at
          (n_shards * shard_queue_cap))
    r.samples;

  (* balance: every shard took work (distinct job keys spread the ring) *)
  List.iter
    (fun name ->
      match List.assoc_opt name r.per_shard with
      | Some n when n > 0 -> ()
      | Some _ -> fail "shard %s was submitted no jobs" name
      | None -> fail "per-shard balance missing %s" name)
    shard_names;

  (* the report is the artifact: BENCH_load.json in the working dir *)
  Obs.write_json_file "BENCH_load.json" (Cluster.Loadgen.json_of_report r);
  (match read_json "BENCH_load.json" with
  | J.Obj _ -> ()
  | _ -> fail "BENCH_load.json is not a JSON object");

  (* 3. one traced submission across the whole fleet *)
  Obs.Clock.set Unix.gettimeofday;
  Obs.Trace.set_pid (Unix.getpid ());
  Obs.Trace.set_enabled true;
  let trace_id = Obs.Trace.new_trace_id () in
  let ctx = Some (trace_id, Obs.Trace.new_span_id ()) in
  let c = connect_retry (Serve.Transport.Unix_sock fleet_sock) in
  Obs.Trace.with_context ctx (fun () ->
      Obs.Trace.with_span "client.submit" (fun () ->
          (* the shift-factor backend: the load window solved this
             grid's attack-free OPF only in the angle formulation, so
             this job's base: entry is a miss and its OPF runs under
             the trace id *)
          match
            Serve.Client.submit ?trace:ctx c
              { (sub ~increase:"9.909" ()) with P.backend = "factors" }
          with
          | Error e -> fail "traced submit: %s" e
          | Ok resp -> (
            match (J.member "ok" resp, J.member "id" resp) with
            | Some (J.Bool true), Some (J.Int id) -> (
              match Serve.Client.await c ~id ~timeout:60. () with
              | Ok ("done", Some _) -> ()
              | Ok (st, _) -> fail "traced job ended as %s" st
              | Error e -> fail "traced await: %s" e)
            | _ -> fail "traced submit rejected: %s" (J.to_string resp))));
  Serve.Client.close c;
  Obs.Trace.set_enabled false;
  Obs.Trace.write_file client_trace;

  (* 4. drain the fleet: every process writes its trace file on the way
     out *)
  Unix.kill fleet_pid Sys.sigterm;
  (match Unix.waitpid [] fleet_pid with
  | _, Unix.WEXITED 0 -> fleet_done := true
  | _, Unix.WEXITED n ->
    dump_log fleet_log;
    fail "fleet exited %d after SIGTERM" n
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
    dump_log fleet_log;
    fail "fleet killed by signal instead of draining");

  (* 5. stitch client + coordinator + shard traces and verify the one
     trace id crosses the process boundaries down to the solver *)
  let inputs =
    List.map read_json
      ((client_trace :: trace_base :: shard_suffixed trace_base))
  in
  let merged =
    match Obs.Trace.merge inputs with
    | Ok j -> j
    | Error e -> fail "trace merge: %s" e
  in
  let events =
    match J.member "traceEvents" merged with
    | Some (J.List evs) -> evs
    | _ -> fail "merged trace has no traceEvents"
  in
  let ours =
    List.filter
      (fun e ->
        match J.member "args" e with
        | Some args -> str_member "trace" args = trace_id
        | None -> false)
      events
  in
  if ours = [] then fail "no merged event carries trace id %s" trace_id;
  let pids =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
           match J.member "pid" e with Some (J.Int p) -> Some p | _ -> None)
         ours)
  in
  if List.length pids < 3 then
    fail "trace id %s spans %d pid(s), expected >= 3 (client, coordinator, \
          shard)"
      trace_id (List.length pids);
  let has_span name =
    List.exists
      (fun e ->
        let n = str_member "name" e in
        String.length n >= String.length name
        && String.sub n 0 (String.length name) = name)
      ours
  in
  List.iter
    (fun name ->
      if not (has_span name) then
        fail "merged trace missing a %s* span under trace id %s" name trace_id)
    [ "client.submit"; "cluster.request"; "serve.job.run"; "lp." ];

  (* the coordinator access log names the routed shard on submits *)
  (if not (Sys.file_exists access_base) then
     fail "coordinator access log %s missing" access_base);
  let ic = open_in access_base in
  let routed = ref false in
  (try
     while true do
       let line = input_line ic in
       match J.of_string line with
       | Ok j ->
         if str_member "verb" j = "submit" && str_member "shard" j <> "" then
           routed := true
       | Error _ -> ()
     done
   with End_of_file -> close_in ic);
  if not !routed then
    fail "no access-log line carries a routed shard for a submit";

  Printf.printf
    "load-smoke: OK (%d arrivals at %.1f/s achieved, p99 e2e %.0fms, max \
     queue depth %d, %d cached, 0 lost; trace %s crosses %d pids down to \
     the solver) in %.1fs\n"
    r.offered r.achieved_rate (1000. *. p99)
    (List.fold_left (fun m s -> max m s.depth) 0 r.samples)
    r.cached trace_id (List.length pids)
    (Unix.gettimeofday () -. t0)
