(* fleet-smoke: CI guard for the sharded fleet, end to end against the
   real CLI binary.

   First a single `topoguard serve` answers a 50-scenario batch of
   5-bus / 14-bus variants — the reference.  Then a 3-shard loopback TCP
   fleet (`topoguard fleet`) serves the same batch cold and its answers
   must be byte-identical; a warm resubmission must be 100% cache hits
   (every item cached = true, zero new simplex pivots on any shard, and
   every shard must have completed work, proving the ring actually
   spread the keys).  The aggregated metrics scrape must carry per-shard
   labels and the coordinator's own cluster.* series.  Then one shard is
   shut down behind the coordinator's back and the batch submitted a
   third time: the coordinator must notice the death, rebalance the
   ring (cluster.ring.rebalances / keys_moved count it) and still
   deliver all 50 correct answers.  Finally SIGTERM must drain the
   fleet: exit 0, the coordinator socket removed, and every shard port
   refusing connections (no shard process left behind).

   CI entry point: dune build @fleet-smoke *)

module J = Obs.Json
module P = Serve.Protocol

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("fleet-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name
let ref_sock = tmp (Printf.sprintf "tg-fleet-ref-%d.sock" (Unix.getpid ()))
let fleet_sock = tmp (Printf.sprintf "tg-fleet-%d.sock" (Unix.getpid ()))
let journal_dir = tmp (Printf.sprintf "tg-fleet-%d.journals" (Unix.getpid ()))
let ref_log = tmp (Printf.sprintf "tg-fleet-ref-%d.log" (Unix.getpid ()))
let fleet_log = tmp (Printf.sprintf "tg-fleet-%d.log" (Unix.getpid ()))
let base_port = 21100 + (Unix.getpid () mod 20000)
let host = "127.0.0.1"
let n_shards = 3

let cleanup () =
  List.iter
    (fun p -> if Sys.file_exists p then try Sys.remove p with Sys_error _ -> ())
    [ ref_sock; fleet_sock; ref_log; fleet_log ];
  if Sys.file_exists journal_dir then begin
    Array.iter
      (fun f -> try Sys.remove (Filename.concat journal_dir f) with Sys_error _ -> ())
      (Sys.readdir journal_dir);
    try Unix.rmdir journal_dir with Unix.Unix_error _ -> ()
  end

let grid5 = Grid.Spec.print (Grid.Test_systems.case_study_1 ())
let grid14 = Grid.Spec.print (Grid.Test_systems.ieee 14)

(* 50 distinct scenarios: 5-bus and 14-bus alternating, each pair with
   its own attack threshold, so the batch spreads over the whole ring *)
let scenarios =
  List.init 50 (fun k ->
      {
        P.grid = (if k mod 2 = 0 then grid5 else grid14);
        mode = "topo";
        base = "proportional";
        increase = Some (string_of_int (1 + (k / 2)));
        max_candidates = 20;
        single_line = true;
        backend = "lp";
        timeout = 0.;
      })

(* ---- JSON helpers ---- *)

let int_field name j =
  match J.member name j with
  | Some (J.Int n) -> n
  | _ -> fail "missing int field %S in %s" name (J.to_string j)

let bool_field name j =
  match J.member name j with
  | Some (J.Bool b) -> b
  | _ -> fail "missing bool field %S in %s" name (J.to_string j)

let expect_ok what = function
  | Error e -> fail "%s: transport: %s" what e
  | Ok resp ->
    if not (bool_field "ok" resp) then
      fail "%s: server error: %s" what (J.to_string resp)
    else resp

let counter_of snap name =
  match J.member "counters" snap with
  | Some counters -> (
    match J.member name counters with Some (J.Int n) -> n | _ -> 0)
  | None -> fail "snapshot missing counters"

(* summed pivot work in one shard's stats: unchanged across a warm
   resubmission means the store answered, not the solver *)
let pivots_of snap =
  counter_of snap "smt.simplex.pivots"
  + counter_of snap "lp.exact.pivots"
  + counter_of snap "lp.float.pivots"

(* per-shard stats objects out of the coordinator's stats response *)
let shard_stats stats =
  match J.member "shards" stats with
  | Some (J.Obj shards) -> shards
  | _ -> fail "coordinator stats missing shards object"

let shard_snapshot name stats =
  let s =
    match List.assoc_opt name (shard_stats stats) with
    | Some s -> s
    | None -> fail "coordinator stats missing shard %s" name
  in
  match J.member "snapshot" s with
  | Some snap -> snap
  | None -> fail "shard %s stats missing snapshot" name

let coord_counter stats name =
  match J.member "snapshot" stats with
  | Some snap -> counter_of snap name
  | None -> fail "coordinator stats missing own snapshot"

(* ---- child processes ---- *)

let spawn argv log_file =
  let log_fd =
    Unix.openfile log_file [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid = Unix.create_process argv.(0) argv null log_fd log_fd in
  Unix.close null;
  Unix.close log_fd;
  pid

let dump_log file =
  if Sys.file_exists file then begin
    let ic = open_in_bin file in
    let n = in_channel_length ic in
    prerr_string (really_input_string ic n);
    close_in ic
  end

let connect_retry endpoint log_file =
  let rec go n =
    match Serve.Client.connect_endpoint endpoint with
    | Ok c -> c
    | Error e ->
      if n = 0 then begin
        dump_log log_file;
        fail "connect %s: %s" (Serve.Transport.endpoint_to_string endpoint) e
      end
      else begin
        Unix.sleepf 0.05;
        go (n - 1)
      end
  in
  go 200

(* batch-submit all scenarios and await every job: the list of result
   payloads in submission order, plus how many items came back cached *)
let run_batch what c =
  let resp = expect_ok what (Serve.Client.submit_batch c scenarios) in
  let items =
    match J.member "results" resp with
    | Some (J.List items) when List.length items = List.length scenarios ->
      items
    | _ -> fail "%s: malformed batch response %s" what (J.to_string resp)
  in
  let cached = ref 0 in
  let answers =
    List.mapi
      (fun k item ->
        if not (bool_field "ok" item) then
          fail "%s: item %d rejected: %s" what k (J.to_string item);
        if bool_field "cached" item then incr cached;
        let id = int_field "id" item in
        match Serve.Client.await c ~id ~timeout:120. () with
        | Ok ("done", Some result) -> J.to_string result
        | Ok (st, _) -> fail "%s: item %d ended as %s" what k st
        | Error e -> fail "%s: await item %d: %s" what k e)
      items
  in
  (answers, !cached)

let () =
  let cli =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else fail "usage: fleet_smoke <topoguard-cli>"
  in
  let t0 = Unix.gettimeofday () in
  cleanup ();
  at_exit cleanup;
  Unix.mkdir journal_dir 0o755;

  (* 1. the reference: one plain server answers the batch *)
  let ref_pid =
    spawn [| cli; "serve"; "--socket"; ref_sock; "--jobs"; "2" |] ref_log
  in
  let ref_done = ref false in
  let kill_ref () =
    if not !ref_done then begin
      (try Unix.kill ref_pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] ref_pid)
    end
  in
  Fun.protect ~finally:kill_ref @@ fun () ->
  let c = connect_retry (Serve.Transport.Unix_sock ref_sock) ref_log in
  let reference, _ = run_batch "reference batch" c in
  Serve.Client.close c;
  Unix.kill ref_pid Sys.sigterm;
  (match Unix.waitpid [] ref_pid with
  | _, Unix.WEXITED 0 -> ref_done := true
  | _ ->
    dump_log ref_log;
    fail "reference server did not drain cleanly");

  (* 2. the fleet: 3 shards on loopback TCP behind one coordinator *)
  let fleet_pid =
    spawn
      [|
        cli; "fleet"; "--listen"; "unix:" ^ fleet_sock;
        "--shards"; string_of_int n_shards; "--host"; host;
        "--base-port"; string_of_int base_port;
        "--journal-dir"; journal_dir; "--jobs"; "2"; "--verbose";
      |]
      fleet_log
  in
  let fleet_done = ref false in
  let shard_endpoints =
    List.init n_shards (fun i -> Serve.Transport.Tcp (host, base_port + i))
  in
  let kill_fleet () =
    if not !fleet_done then begin
      (* a failed run must not leave shard processes behind: ask each
         shard to drain before killing the coordinator that reaps them *)
      List.iter
        (fun ep ->
          match Serve.Client.connect_endpoint ep with
          | Ok c ->
            ignore (Serve.Client.request c P.Shutdown);
            Serve.Client.close c
          | Error _ -> ())
        shard_endpoints;
      (try Unix.kill fleet_pid Sys.sigkill with Unix.Unix_error _ -> ());
      ignore (Unix.waitpid [] fleet_pid)
    end
  in
  Fun.protect ~finally:kill_fleet @@ fun () ->
  let c = connect_retry (Serve.Transport.Unix_sock fleet_sock) fleet_log in

  (* cold: answers must be byte-identical to the single server's *)
  let cold_t0 = Unix.gettimeofday () in
  let cold, _ = run_batch "cold batch" c in
  let cold_wall = Unix.gettimeofday () -. cold_t0 in
  List.iteri
    (fun k (a, b) ->
      if a <> b then
        fail "cold batch item %d differs from reference:\n  fleet: %s\n  ref:   %s"
          k a b)
    (List.combine cold reference);
  let stats_cold = expect_ok "stats cold" (Serve.Client.request c P.Stats) in
  let shard_names = List.init n_shards (Printf.sprintf "shard-%d") in
  List.iter
    (fun name ->
      let snap = shard_snapshot name stats_cold in
      if counter_of snap "serve.jobs.done" = 0 then
        fail "shard %s completed no jobs: the ring did not spread the batch"
          name)
    shard_names;
  let pivots_cold =
    List.map (fun n -> pivots_of (shard_snapshot n stats_cold)) shard_names
  in

  (* warm: every item served by the shards' stores, no solver work *)
  let warm_t0 = Unix.gettimeofday () in
  let warm, warm_cached = run_batch "warm batch" c in
  let warm_wall = Unix.gettimeofday () -. warm_t0 in
  if warm_cached <> List.length scenarios then
    fail "warm batch: %d of %d items cached" warm_cached
      (List.length scenarios);
  List.iteri
    (fun k (a, b) ->
      if a <> b then fail "warm batch item %d differs from reference" k)
    (List.combine warm reference);
  let stats_warm = expect_ok "stats warm" (Serve.Client.request c P.Stats) in
  List.iter2
    (fun name before ->
      let snap = shard_snapshot name stats_warm in
      let after = pivots_of snap in
      if after <> before then
        fail "warm batch ran the solver on %s: %d new pivot(s)" name
          (after - before);
      if counter_of snap "store.hit" = 0 then
        fail "shard %s recorded no store hits on the warm batch" name)
    shard_names pivots_cold;
  if coord_counter stats_warm "cluster.batch.submitted"
     < 2 * List.length scenarios
  then fail "cluster.batch.submitted did not count both batches";

  (* the measured figures are the artifact: BENCH_fleet.json pairs the
     cold (solver) and warm (store) batch wall-clocks with where the
     warm hits landed *)
  Obs.write_json_file "BENCH_fleet.json"
    (J.Obj
       [
         ("scenarios", J.Int (List.length scenarios));
         ("shards", J.Int n_shards);
         ("cold_batch_s", J.Float cold_wall);
         ("warm_batch_s", J.Float warm_wall);
         ("warm_cached", J.Int warm_cached);
         ( "per_shard_store_hits",
           J.Obj
             (List.map
                (fun name ->
                  ( name,
                    J.Int
                      (counter_of (shard_snapshot name stats_warm) "store.hit")
                  ))
                shard_names) );
       ]);

  (* aggregated scrape: per-shard labels plus the coordinator's own
     cluster.* series in one exposition *)
  let m = expect_ok "metrics" (Serve.Client.request c P.Metrics) in
  let text =
    match J.member "metrics" m with
    | Some (J.String s) -> s
    | _ -> fail "metrics response missing text"
  in
  let contains needle =
    let n = String.length needle and h = String.length text in
    let rec go i = i + n <= h && (String.sub text i n = needle || go (i + 1)) in
    go 0
  in
  List.iter
    (fun name ->
      if not (contains (Printf.sprintf "{shard=\"%s\"}" name)) then
        fail "metrics exposition missing per-shard label for %s" name)
    shard_names;
  List.iter
    (fun series ->
      if not (contains series) then
        fail "metrics exposition missing %s" series)
    [
      "topoguard_cluster_batch_submitted_total";
      "topoguard_cluster_route_seconds_bucket";
    ];

  (* 3. shoot a shard behind the coordinator's back, resubmit: the
     coordinator must notice, rebalance and still answer everything *)
  let victim = Serve.Transport.Tcp (host, base_port + 1) in
  let vc = connect_retry victim fleet_log in
  ignore (expect_ok "shutdown shard" (Serve.Client.request vc P.Shutdown));
  Serve.Client.close vc;
  let rec wait_dead n =
    if n = 0 then fail "shard-1 still accepting connections after shutdown"
    else
      match Serve.Client.connect_endpoint victim with
      | Ok c2 ->
        Serve.Client.close c2;
        Unix.sleepf 0.05;
        wait_dead (n - 1)
      | Error _ -> ()
  in
  wait_dead 200;
  let failover, _ = run_batch "failover batch" c in
  List.iteri
    (fun k (a, b) ->
      if a <> b then fail "failover batch item %d differs from reference" k)
    (List.combine failover reference);
  let stats_f = expect_ok "stats failover" (Serve.Client.request c P.Stats) in
  if coord_counter stats_f "cluster.ring.rebalances" < 1 then
    fail "coordinator did not record a ring rebalance after the shard death";
  if coord_counter stats_f "cluster.ring.keys_moved" < 1 then
    fail "ring rebalance moved no tracked keys";
  if coord_counter stats_f "cluster.batch.failed" <> 0 then
    fail "cluster.batch.failed = %d after failover"
      (coord_counter stats_f "cluster.batch.failed");
  Serve.Client.close c;

  (* 4. SIGTERM: the fleet drains shards and coordinator, exit 0 *)
  Unix.kill fleet_pid Sys.sigterm;
  (match Unix.waitpid [] fleet_pid with
  | _, Unix.WEXITED 0 -> fleet_done := true
  | _, Unix.WEXITED n ->
    dump_log fleet_log;
    fail "fleet exited %d after SIGTERM" n
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
    dump_log fleet_log;
    fail "fleet killed by signal instead of draining");
  if Sys.file_exists fleet_sock then
    fail "coordinator socket left behind after drain";
  List.iter
    (fun ep ->
      match Serve.Transport.dial ep with
      | Ok fd ->
        Unix.close fd;
        fail "%s still accepts connections after the drain"
          (Serve.Transport.endpoint_to_string ep)
      | Error _ -> ())
    shard_endpoints;

  Printf.printf
    "fleet-smoke: OK (50-scenario batch byte-identical to single server, \
     cold %.1fs vs warm %.1fs resubmit 100%% cached with zero new pivots, \
     per-shard metrics labels, shard death survived with rebalance, \
     graceful drain with every shard port closed; BENCH_fleet.json \
     written) in %.1fs\n"
    cold_wall warm_wall
    (Unix.gettimeofday () -. t0)
