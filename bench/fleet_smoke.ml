(* fleet-smoke: CI guard for the sharded fleet, end to end against the
   real CLI binary.

   First a single `topoguard serve` answers a 50-scenario batch of
   5-bus / 14-bus variants — the reference.  Then a 3-shard loopback TCP
   fleet (`topoguard fleet`) serves the same batch cold and its answers
   must be byte-identical; a warm resubmission must be 100% cache hits
   (every item cached = true, zero new simplex pivots on any shard, and
   every shard must have completed work, proving the ring actually
   spread the keys).  The aggregated metrics scrape must carry per-shard
   labels and the coordinator's own cluster.* series.  Then a fresh
   cold batch is submitted and awaited by several clients at once, and
   while their waits are parked at the coordinator one shard process is
   SIGKILLed: the coordinator must see the death on the parked waits'
   side connections, rebalance the ring (cluster.ring.rebalances /
   keys_moved count it), resubmit to the new owners, and still deliver
   every answer byte-identical to the single server's.  A second shard
   is then shut down behind the coordinator's back and the first batch
   resubmitted: its sub-batch to the dead shard is re-dispatched, and
   every answer still matches.  Finally SIGTERM
   must drain the fleet: exit 0, the coordinator socket removed, and
   every shard port refusing connections (no shard process left
   behind).

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

(* the batch the shard death interrupts: 14-bus jobs (each a fraction
   of a second of exact LP) with targets the first batch never used *)
let kill_scenarios =
  List.init 24 (fun k ->
      { (List.nth scenarios 1) with P.increase = Some (Printf.sprintf "%d.5" (1 + k)) })

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

(* batch-submit scenarios: the job ids in submission order, plus how
   many items came back cached *)
let submit_batch what c scenarios =
  let resp = expect_ok what (Serve.Client.submit_batch c scenarios) in
  let items =
    match J.member "results" resp with
    | Some (J.List items) when List.length items = List.length scenarios ->
      items
    | _ -> fail "%s: malformed batch response %s" what (J.to_string resp)
  in
  let cached = ref 0 in
  let ids =
    List.mapi
      (fun k item ->
        if not (bool_field "ok" item) then
          fail "%s: item %d rejected: %s" what k (J.to_string item);
        if bool_field "cached" item then incr cached;
        int_field "id" item)
      items
  in
  (ids, !cached)

let await_result c id =
  match Serve.Client.await c ~id ~timeout:120. () with
  | Ok ("done", Some result) -> Ok (J.to_string result)
  | Ok (st, _) -> Error ("ended as " ^ st)
  | Error e -> Error ("await: " ^ e)

let await_answer what c k id =
  match await_result c id with
  | Ok answer -> answer
  | Error e -> fail "%s: item %d %s" what k e

(* submit a batch and await every job: the result payloads in submission
   order, plus how many items came back cached *)
let run_batch ?(scenarios = scenarios) what c =
  let ids, cached = submit_batch what c scenarios in
  (List.mapi (await_answer what c) ids, cached)

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

(* the shard process listening on [port], found by its command line *)
let listening_pid port =
  let listen = Printf.sprintf "tcp:%s:%d" host port in
  let rec has_listen = function
    | "--listen" :: ep :: _ when ep = listen -> true
    | _ :: rest -> has_listen rest
    | [] -> false
  in
  let cmdline pid =
    match open_in_bin (Printf.sprintf "/proc/%s/cmdline" pid) with
    | ic ->
      let s = try In_channel.input_all ic with Sys_error _ -> "" in
      close_in ic;
      String.split_on_char '\000' s
    | exception Sys_error _ -> []
  in
  Option.map int_of_string
    (List.find_opt
       (fun d -> d <> "" && String.for_all (fun ch -> ch >= '0' && ch <= '9') d
                 && has_listen (cmdline d))
       (Array.to_list (Sys.readdir "/proc")))

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
      (try ignore (Unix.waitpid [] ref_pid) with Unix.Unix_error _ -> ())
    end
  in
  (* [fail] exits without unwinding, so clean-ups run from at_exit *)
  at_exit kill_ref;
  let c = connect_retry (Serve.Transport.Unix_sock ref_sock) ref_log in
  let reference, _ = run_batch "reference batch" c in
  let kill_reference, _ = run_batch ~scenarios:kill_scenarios "reference kill batch" c in
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
    if not !fleet_done then
      (* a failed run must not leave shard processes behind: SIGTERM
         drains the fleet, which stops and reaps its shards; one that
         does not exit in time has each shard asked to drain before the
         coordinator is killed *)
      if not (stopped_by_sigterm fleet_pid) then begin
        List.iter
          (fun ep ->
            match Serve.Client.connect_endpoint ep with
            | Ok c ->
              ignore (Serve.Client.request c P.Shutdown);
              Serve.Client.close c
            | Error _ -> ())
          shard_endpoints;
        (try Unix.kill fleet_pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] fleet_pid) with Unix.Unix_error _ -> ())
      end
  in
  at_exit kill_fleet;
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

  (* 3. SIGKILL a shard mid-wait: a fresh cold batch, awaited by four
     clients at once, the victim's items first, so their waits are
     parked at the coordinator when the shard dies *)
  let victim_name = "shard-1" in
  let victim_port = base_port + 1 in
  let ring = Cluster.Ring.create (List.init n_shards (Printf.sprintf "shard-%d")) in
  let owner (s : P.submit) =
    match Grid.Spec.parse s.P.grid with
    | Ok spec -> Cluster.Ring.owner ring (P.job_key spec s)
    | Error e -> fail "parse: %s" e
  in
  let victim_items =
    List.filter (fun k -> owner (List.nth kill_scenarios k) = Some victim_name)
      (List.init (List.length kill_scenarios) Fun.id)
  in
  if List.length victim_items < 4 then
    fail "%s owns %d of the kill batch's items, need 4" victim_name
      (List.length victim_items);
  let order =
    victim_items
    @ List.filter (fun k -> not (List.mem k victim_items))
        (List.init (List.length kill_scenarios) Fun.id)
  in
  let ids, _ = submit_batch "kill batch" c kill_scenarios in
  let ids = Array.of_list ids in
  (* awaiter domains only record: [fail] belongs to the main domain *)
  let answers = Array.make (Array.length ids) (Error "not awaited") in
  let next = Atomic.make 0 in
  let awaiter () =
    match Serve.Client.connect_endpoint (Serve.Transport.Unix_sock fleet_sock) with
    | Error e -> Array.iteri (fun k _ -> answers.(k) <- Error e) answers
    | Ok ac ->
      let rec go () =
        let i = Atomic.fetch_and_add next 1 in
        if i < List.length order then begin
          let k = List.nth order i in
          answers.(k) <- await_result ac ids.(k);
          go ()
        end
      in
      go ();
      Serve.Client.close ac
  in
  let awaiters = List.init 4 (fun _ -> Pool.detached awaiter) in
  Unix.sleepf 0.05;
  (match listening_pid victim_port with
  | Some pid -> Unix.kill pid Sys.sigkill
  | None -> fail "no process listens on port %d" victim_port);
  List.iter Pool.Future.await awaiters;
  List.iteri
    (fun k b ->
      match answers.(k) with
      | Error e -> fail "kill batch: item %d %s" k e
      | Ok a when a <> b ->
        fail "kill batch item %d differs from reference:\n  fleet: %s\n  ref:   %s" k a b
      | Ok _ -> ())
    kill_reference;
  (* the coordinator's verbose log names the path the death took *)
  let log_text = In_channel.with_open_bin fleet_log In_channel.input_all in
  let mentions needle =
    let n = String.length needle in
    let rec go i =
      i + n <= String.length log_text && (String.sub log_text i n = needle || go (i + 1))
    in
    go 0
  in
  if not (mentions (victim_name ^ " failed mid-wait")) then
    fail "no parked wait saw %s die (coordinator log has no mid-wait failure)"
      victim_name;
  let stats_f = expect_ok "stats failover" (Serve.Client.request c P.Stats) in
  if coord_counter stats_f "cluster.ring.rebalances" < 1 then
    fail "coordinator did not record a ring rebalance after the shard death";
  if coord_counter stats_f "cluster.ring.keys_moved" < 1 then
    fail "ring rebalance moved no tracked keys";

  (* 3b. a second shard shut down behind the coordinator's back: the
     resubmitted first batch's sub-batch to it fails and is
     re-dispatched to the last live shard *)
  let victim2 = Serve.Transport.Tcp (host, base_port + 2) in
  let vc = connect_retry victim2 fleet_log in
  ignore (expect_ok "shutdown shard" (Serve.Client.request vc P.Shutdown));
  Serve.Client.close vc;
  let rec wait_dead n =
    if n = 0 then fail "shard-2 still accepting connections after shutdown"
    else
      match Serve.Transport.dial victim2 with
      | Ok fd ->
        Unix.close fd;
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
  if coord_counter stats_f "cluster.ring.rebalances" < 2 then
    fail "coordinator did not record a rebalance for the second shard death";
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
     per-shard metrics labels, shard SIGKILLed mid-wait survived with \
     rebalance and every answer byte-identical, a second shard death \
     survived by a batch, graceful drain with every shard port closed; \
     BENCH_fleet.json written) in %.1fs\n"
    cold_wall warm_wall
    (Unix.gettimeofday () -. t0)
