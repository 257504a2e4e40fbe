(* Tests for lib/cluster and the fleet-facing serve extensions: ring
   determinism / balance / minimal movement, protocol versioning, batch
   submit ordering, a TCP server roundtrip with oversized-line
   rejection, and the peer journal sync that lets a cold shard rejoin
   warm. *)

module J = Obs.Json
module P = Serve.Protocol
module Ring = Cluster.Ring

let grid_text = Grid.Spec.print (Grid.Test_systems.case_study_1 ())

let submit_of ?(increase = None) ?(grid = grid_text) () =
  {
    P.grid;
    mode = "topo";
    base = "case-study";
    increase;
    max_candidates = 50;
    single_line = true;
    backend = "lp";
    timeout = 0.;
  }

let keys n = List.init n (Printf.sprintf "job:key-%d")

(* ---- ring ---- *)

let ring_tests =
  [
    Alcotest.test_case "placement is deterministic across builders" `Quick
      (fun () ->
        let r1 = Ring.create [ "a"; "b"; "c"; "d" ] in
        let r2 = Ring.create [ "d"; "c"; "b"; "a"; "a" ] in
        Alcotest.(check (list string)) "same shards" (Ring.shards r1)
          (Ring.shards r2);
        List.iter
          (fun k ->
            Alcotest.(check (option string)) k (Ring.owner r1 k)
              (Ring.owner r2 k))
          (keys 500));
    Alcotest.test_case "keys spread across 4 shards within bounds" `Quick
      (fun () ->
        let shards = [ "s0"; "s1"; "s2"; "s3" ] in
        let ring = Ring.create shards in
        let counts = Hashtbl.create 4 in
        List.iter
          (fun k ->
            match Ring.owner ring k with
            | Some s ->
              Hashtbl.replace counts s
                (1 + Option.value ~default:0 (Hashtbl.find_opt counts s))
            | None -> Alcotest.fail "empty ring")
          (keys 8000);
        (* expected 2000 per shard; 256 vnodes holds every shard within
           ~30% of fair on this (deterministic) key population *)
        List.iter
          (fun s ->
            let n = Option.value ~default:0 (Hashtbl.find_opt counts s) in
            if n < 1400 || n > 2600 then
              Alcotest.failf "shard %s owns %d of 8000 keys" s n)
          shards);
    Alcotest.test_case "growing 3->4 shards moves <= 1.5/N of keys" `Quick
      (fun () ->
        let ks = keys 8000 in
        let before = Ring.create [ "s0"; "s1"; "s2" ] in
        let after = Ring.add before "s3" in
        let moved = Ring.moved ~before ~after ks in
        Alcotest.(check bool) "some keys moved" true (moved > 0);
        let bound =
          int_of_float (1.5 /. 4. *. float_of_int (List.length ks))
        in
        if moved > bound then
          Alcotest.failf "%d of %d keys moved (bound %d)" moved
            (List.length ks) bound;
        (* and every move is *to* the new shard: growth never shuffles
           keys between existing shards *)
        List.iter
          (fun k ->
            if Ring.owner before k <> Ring.owner after k then
              Alcotest.(check (option string)) "moved to the new shard"
                (Some "s3") (Ring.owner after k))
          ks);
    Alcotest.test_case "removing a shard only moves its own keys" `Quick
      (fun () ->
        let ks = keys 8000 in
        let before = Ring.create [ "s0"; "s1"; "s2"; "s3" ] in
        let after = Ring.remove before "s2" in
        List.iter
          (fun k ->
            match Ring.owner before k with
            | Some "s2" ->
              Alcotest.(check bool) "reassigned" true
                (Ring.owner after k <> Some "s2")
            | owner ->
              Alcotest.(check (option string)) "untouched" owner
                (Ring.owner after k))
          ks);
    Alcotest.test_case "ranges agree with ownership" `Quick (fun () ->
        let ring = Ring.create [ "s0"; "s1"; "s2" ] in
        let in_ranges name p =
          List.exists (fun (lo, hi) -> lo <= p && p <= hi)
            (Ring.ranges ring name)
        in
        List.iter
          (fun k ->
            let p = Store.Canonical.point k in
            let holders =
              List.filter (fun s -> in_ranges s p) (Ring.shards ring)
            in
            Alcotest.(check (list string)) "exactly the owner"
              (match Ring.owner ring k with Some s -> [ s ] | None -> [])
              holders)
          (keys 500));
  ]

(* ---- protocol versioning ---- *)

let version_tests =
  [
    Alcotest.test_case "newer protocol versions are rejected" `Quick
      (fun () ->
        match
          P.request_of_json
            (J.Obj [ ("op", J.String "stats"); ("v", J.Int (P.version + 1)) ])
        with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "accepted a future version");
    Alcotest.test_case "absent and current versions are accepted" `Quick
      (fun () ->
        List.iter
          (fun j ->
            match P.request_of_json j with
            | Ok P.Stats -> ()
            | Ok _ -> Alcotest.fail "wrong request"
            | Error e -> Alcotest.failf "rejected: %s" e)
          [
            J.Obj [ ("op", J.String "stats") ];
            J.Obj [ ("op", J.String "stats"); ("v", J.Int P.version) ];
          ]);
    Alcotest.test_case "batch and sync roundtrip through JSON" `Quick
      (fun () ->
        let batch = P.Submit_batch [ submit_of (); submit_of () ] in
        (match P.request_of_json (P.json_of_request batch) with
        | Ok (P.Submit_batch [ a; b ]) ->
          Alcotest.(check string) "grid a" grid_text a.P.grid;
          Alcotest.(check string) "grid b" grid_text b.P.grid
        | _ -> Alcotest.fail "batch roundtrip");
        match
          P.request_of_json (P.json_of_request (P.Sync [ (0, 7); (9, 9) ]))
        with
        | Ok (P.Sync [ (0, 7); (9, 9) ]) -> ()
        | _ -> Alcotest.fail "sync roundtrip");
  ]

(* ---- in-process servers ---- *)

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name

let expect_ok = function
  | Error e -> Alcotest.failf "rpc failed: %s" e
  | Ok resp -> (
    match J.member "ok" resp with
    | Some (J.Bool true) -> resp
    | _ -> Alcotest.failf "server error: %s" (J.to_string resp))

let int_field name j =
  match J.member name j with
  | Some (J.Int n) -> n
  | _ -> Alcotest.failf "missing int field %S in %s" name (J.to_string j)

let bool_field name j =
  match J.member name j with
  | Some (J.Bool b) -> b
  | _ -> Alcotest.failf "missing bool field %S in %s" name (J.to_string j)

let connect_retry endpoint =
  let rec go n =
    match Serve.Client.connect_endpoint endpoint with
    | Ok c -> c
    | Error e ->
      if n = 0 then Alcotest.failf "connect: %s" e
      else begin
        Unix.sleepf 0.05;
        go (n - 1)
      end
  in
  go 100

(* an ephemeral loopback port: bind 0, read back, release.  The tiny
   race against another process is acceptable in tests *)
let free_port () =
  let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Unix.bind fd (Unix.ADDR_INET (Unix.inet_addr_loopback, 0));
  let port =
    match Unix.getsockname fd with
    | Unix.ADDR_INET (_, p) -> p
    | _ -> Alcotest.fail "no port"
  in
  Unix.close fd;
  port

let shutdown_server c server =
  ignore (expect_ok (Serve.Client.request c P.Shutdown));
  Serve.Client.close c;
  match Pool.Future.await server with
  | Ok () -> ()
  | Error e -> Alcotest.failf "server exit: %s" e

let server_tests =
  [
    Alcotest.test_case "submit_batch answers per item in order" `Slow
      (fun () ->
        let socket = tmp (Printf.sprintf "tg-cb-%d.sock" (Unix.getpid ())) in
        if Sys.file_exists socket then Sys.remove socket;
        let cfg = Serve.Server.default_config ~socket_path:socket in
        let server = Pool.detached (fun () -> Serve.Server.run cfg) in
        Fun.protect
          ~finally:(fun () ->
            if Sys.file_exists socket then Sys.remove socket)
          (fun () ->
            let c = connect_retry (Serve.Transport.Unix_sock socket) in
            (* item 1 is malformed: its slot must carry the error while
               the neighbours are routed normally *)
            let items =
              [
                submit_of ();
                submit_of ~grid:"not a grid" ();
                submit_of ~increase:(Some "3") ();
              ]
            in
            let resp = expect_ok (Serve.Client.submit_batch c items) in
            let results =
              match J.member "results" resp with
              | Some (J.List l) -> l
              | _ -> Alcotest.fail "missing results"
            in
            Alcotest.(check int) "one slot per item" (List.length items)
              (List.length results);
            (match results with
            | [ r0; r1; r2 ] ->
              Alcotest.(check bool) "item 0 accepted" true (bool_field "ok" r0);
              Alcotest.(check bool) "item 1 rejected" false (bool_field "ok" r1);
              Alcotest.(check bool) "item 2 accepted" true (bool_field "ok" r2);
              let id0 = int_field "id" r0 and id2 = int_field "id" r2 in
              Alcotest.(check bool) "ids ascend in item order" true (id0 < id2);
              List.iter
                (fun id ->
                  match Serve.Client.await c ~id ~timeout:60. () with
                  | Ok ("done", Some _) -> ()
                  | Ok (st, _) -> Alcotest.failf "job %d: %s" id st
                  | Error e -> Alcotest.failf "await %d: %s" id e)
                [ id0; id2 ]
            | _ -> Alcotest.fail "wrong arity");
            shutdown_server c server));
    Alcotest.test_case "TCP roundtrip and oversized-line rejection" `Slow
      (fun () ->
        let port = free_port () in
        let endpoint = Serve.Transport.Tcp ("127.0.0.1", port) in
        let cfg =
          {
            (Serve.Server.default_config ~socket_path:"/nonexistent") with
            Serve.Server.listen = Some endpoint;
            max_line = 4096;
          }
        in
        let server = Pool.detached (fun () -> Serve.Server.run cfg) in
        let c = connect_retry endpoint in
        (* the whole protocol works over TCP exactly as over the unix
           socket: submit, await, cached resubmit *)
        let r1 = expect_ok (Serve.Client.submit c (submit_of ())) in
        (match Serve.Client.await c ~id:(int_field "id" r1) ~timeout:60. () with
        | Ok ("done", Some _) -> ()
        | Ok (st, _) -> Alcotest.failf "status %s" st
        | Error e -> Alcotest.failf "await: %s" e);
        let r2 = expect_ok (Serve.Client.submit c (submit_of ())) in
        Alcotest.(check bool) "tcp resubmit cached" true
          (bool_field "cached" r2);
        (* a line past the cap is answered with an error and the
           connection closed: the stream is desynchronised *)
        let c2 = connect_retry endpoint in
        let resp =
          Serve.Client.rpc c2
            (J.Obj
               [
                 ("op", J.String "submit");
                 ("grid", J.String (String.make 8192 'x'));
               ])
        in
        (match resp with
        | Ok r -> Alcotest.(check bool) "rejected" false (bool_field "ok" r)
        | Error _ -> () (* closed before replying is also acceptable *));
        (match Serve.Client.request c2 P.Stats with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "connection survived an oversized line");
        Serve.Client.close c2;
        shutdown_server c server);
    Alcotest.test_case "coordinator oversized-line reply matches the server's"
      `Slow (fun () ->
        let sock = tmp (Printf.sprintf "tg-co-big-%d.sock" (Unix.getpid ())) in
        if Sys.file_exists sock then Sys.remove sock;
        let endpoint = Serve.Transport.Unix_sock sock in
        let cfg =
          {
            (Cluster.Coordinator.default_config ~listen:endpoint
               ~shards:[ ("shard-0", Serve.Transport.Unix_sock (sock ^ ".none")) ])
            with
            Cluster.Coordinator.max_line = 4096;
          }
        in
        let coordinator = Pool.detached (fun () -> Cluster.Coordinator.run cfg) in
        let c = connect_retry endpoint in
        let resp =
          Serve.Client.rpc c
            (J.Obj [ ("op", J.String "submit"); ("grid", J.String (String.make 8192 'x')) ])
        in
        (match resp with
        | Ok r ->
          Alcotest.(check bool) "rejected" false (bool_field "ok" r);
          Alcotest.(check int) "carries the protocol version" P.version (int_field "v" r)
        | Error e -> Alcotest.failf "no reply to an oversized line: %s" e);
        (match Serve.Client.request c P.Stats with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "connection survived an oversized line");
        Serve.Client.close c;
        shutdown_server (connect_retry endpoint) coordinator);
    Alcotest.test_case "a cold shard pulls its range from a warm peer" `Slow
      (fun () ->
        let pid = Unix.getpid () in
        let sock_a = tmp (Printf.sprintf "tg-sa-%d.sock" pid) in
        let sock_b = tmp (Printf.sprintf "tg-sb-%d.sock" pid) in
        let journal_a = tmp (Printf.sprintf "tg-sa-%d.j" pid) in
        let files = [ sock_a; sock_b; journal_a ] in
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files;
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files)
          (fun () ->
            (* warm server A by solving one scenario *)
            let cfg_a =
              {
                (Serve.Server.default_config ~socket_path:sock_a) with
                Serve.Server.journal = Some journal_a;
              }
            in
            let server_a = Pool.detached (fun () -> Serve.Server.run cfg_a) in
            let ca = connect_retry (Serve.Transport.Unix_sock sock_a) in
            let r = expect_ok (Serve.Client.submit ca (submit_of ())) in
            (match
               Serve.Client.await ca ~id:(int_field "id" r) ~timeout:60. ()
             with
            | Ok ("done", Some _) -> ()
            | Ok (st, _) -> Alcotest.failf "status %s" st
            | Error e -> Alcotest.failf "await: %s" e);
            (* the job key's exact ring point: a sync for just this
               range must carry the entry *)
            let spec = Grid.Test_systems.case_study_1 () in
            let point =
              Store.Canonical.point (P.job_key spec (submit_of ()))
            in
            (* cold server B warm-starts from A before accepting *)
            let cfg_b =
              {
                (Serve.Server.default_config ~socket_path:sock_b) with
                Serve.Server.sync_peers = [ Serve.Transport.Unix_sock sock_a ];
                sync_ranges = [ (point, point) ];
              }
            in
            let server_b = Pool.detached (fun () -> Serve.Server.run cfg_b) in
            let cb = connect_retry (Serve.Transport.Unix_sock sock_b) in
            (* B has never solved anything, yet answers from cache *)
            let rb = expect_ok (Serve.Client.submit cb (submit_of ())) in
            Alcotest.(check bool) "first submit on B is a cache hit" true
              (bool_field "cached" rb);
            shutdown_server cb server_b;
            shutdown_server ca server_a));
  ]

(* ---- distributed tracing ---- *)

let trace_tests =
  [
    Alcotest.test_case "trace context rides the envelope, absent-tolerant"
      `Quick (fun () ->
        (* a v0 client sends no trace field: parse yields None and the
           request itself is untouched *)
        let plain = P.json_of_request P.Stats in
        Alcotest.(check bool) "absent -> None" true (P.trace_of_json plain = None);
        Alcotest.(check bool) "None is identity" true
          (P.with_trace None plain = plain);
        (* a tagged envelope round-trips both id and parent, and still
           parses as the same request *)
        let tagged = P.with_trace (Some ("t-1", "s-9")) plain in
        Alcotest.(check bool) "id+parent round-trip" true
          (P.trace_of_json tagged = Some ("t-1", "s-9"));
        (match P.request_of_json tagged with
        | Ok P.Stats -> ()
        | _ -> Alcotest.fail "tagged envelope no longer parses");
        (* an empty parent is elided on the wire and comes back empty *)
        let root = P.with_trace (Some ("t-2", "")) plain in
        Alcotest.(check bool) "rootless parent" true
          (P.trace_of_json root = Some ("t-2", ""));
        (* junk in the slot is ignored, not fatal *)
        let junk = J.Obj [ ("op", J.String "stats"); ("trace", J.Int 42) ] in
        Alcotest.(check bool) "junk -> None" true (P.trace_of_json junk = None);
        (* the trace never enters the job identity: same key either way *)
        let spec = Grid.Test_systems.case_study_1 () in
        Alcotest.(check string) "job key is trace-blind"
          (P.job_key spec (submit_of ()))
          (P.job_key spec (submit_of ())));
    Alcotest.test_case "merge re-bases clocks and keeps B/E balanced" `Quick
      (fun () ->
        let ev ?(ph = "X") ?(ts = 0.) ?(pid = 1) ?(tid = 1) name =
          J.Obj
            [
              ("name", J.String name);
              ("ph", J.String ph);
              ("ts", J.Float ts);
              ("pid", J.Int pid);
              ("tid", J.Int tid);
            ]
        in
        let export base events =
          J.Obj
            [
              ("traceEvents", J.List events);
              ("displayTimeUnit", J.String "ms");
              ("clockBaseUs", J.Float base);
            ]
        in
        (* two processes whose clocks started 1000us apart *)
        let a =
          export 5000.
            [ ev ~ph:"B" ~ts:10. "outer"; ev ~ph:"E" ~ts:400. "outer" ]
        in
        let b =
          export 6000.
            [ ev ~ph:"B" ~ts:0. ~pid:2 "inner"; ev ~ph:"E" ~ts:90. ~pid:2 "inner" ]
        in
        let merged =
          match Obs.Trace.merge [ a; b ] with
          | Ok j -> j
          | Error e -> Alcotest.failf "merge: %s" e
        in
        let events =
          match J.member "traceEvents" merged with
          | Some (J.List l) -> l
          | _ -> Alcotest.fail "merged trace has no traceEvents"
        in
        Alcotest.(check int) "all events survive" 4 (List.length events);
        let ts_of e =
          match J.member "ts" e with
          | Some (J.Float t) -> t
          | Some (J.Int t) -> float_of_int t
          | _ -> Alcotest.fail "event without ts"
        in
        (* global zero is a's first event (5000+10); b's events land
           990us and 1080us after it, still in b's recorded order *)
        let all_ts = List.map ts_of events in
        Alcotest.(check (float 1e-6)) "earliest is zero" 0.
          (List.fold_left min infinity all_ts);
        let b_ts =
          List.filter_map
            (fun e ->
              match J.member "pid" e with
              | Some (J.Int 2) -> Some (ts_of e)
              | _ -> None)
            events
        in
        Alcotest.(check (list (float 1e-6))) "re-based across clocks"
          [ 990.; 1080. ] b_ts;
        (* every (pid, tid) lane opens exactly as many spans as it
           closes: the invariant about:tracing needs *)
        let lanes = Hashtbl.create 4 in
        List.iter
          (fun e ->
            let key =
              (J.member "pid" e, J.member "tid" e)
            in
            let opens, closes =
              Option.value ~default:(0, 0) (Hashtbl.find_opt lanes key)
            in
            match J.member "ph" e with
            | Some (J.String "B") -> Hashtbl.replace lanes key (opens + 1, closes)
            | Some (J.String "E") -> Hashtbl.replace lanes key (opens, closes + 1)
            | _ -> ())
          events;
        Hashtbl.iter
          (fun _ (opens, closes) ->
            Alcotest.(check int) "B/E balanced per lane" opens closes)
          lanes;
        (* an input without traceEvents is a described error, not a blow-up *)
        match Obs.Trace.merge [ J.Obj [ ("nope", J.Int 1) ] ] with
        | Error _ -> ()
        | Ok _ -> Alcotest.fail "merged a non-trace input");
    Alcotest.test_case "routed jobs keep the originating trace id" `Slow
      (fun () ->
        let pid = Unix.getpid () in
        let sock_s0 = tmp (Printf.sprintf "tg-tr-s0-%d.sock" pid) in
        let sock_s1 = tmp (Printf.sprintf "tg-tr-s1-%d.sock" pid) in
        let sock_co = tmp (Printf.sprintf "tg-tr-co-%d.sock" pid) in
        let files = [ sock_s0; sock_s1; sock_co ] in
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files;
        Obs.Clock.set Unix.gettimeofday;
        Obs.Trace.set_enabled true;
        Fun.protect
          ~finally:(fun () ->
            Obs.Trace.set_enabled false;
            List.iter (fun p -> if Sys.file_exists p then Sys.remove p) files)
          (fun () ->
            let shard sock =
              Pool.detached (fun () ->
                  Serve.Server.run
                    (Serve.Server.default_config ~socket_path:sock))
            in
            let s0 = shard sock_s0 and s1 = shard sock_s1 in
            let coordinator =
              Pool.detached (fun () ->
                  Cluster.Coordinator.run
                    (Cluster.Coordinator.default_config
                       ~listen:(Serve.Transport.Unix_sock sock_co)
                       ~shards:
                         [
                           ("shard-0", Serve.Transport.Unix_sock sock_s0);
                           ("shard-1", Serve.Transport.Unix_sock sock_s1);
                         ]))
            in
            (* wait for the shards directly, then the front door *)
            List.iter
              (fun sock ->
                Serve.Client.close
                  (connect_retry (Serve.Transport.Unix_sock sock)))
              [ sock_s0; sock_s1 ];
            let c = connect_retry (Serve.Transport.Unix_sock sock_co) in
            let trace = ("t-routed", "s-origin") in
            let r =
              expect_ok
                (Serve.Client.submit ~trace c
                   (submit_of ~increase:(Some "7") ()))
            in
            (match
               Serve.Client.await c ~id:(int_field "id" r) ~timeout:60. ()
             with
            | Ok ("done", Some _) -> ()
            | Ok (st, _) -> Alcotest.failf "status %s" st
            | Error e -> Alcotest.failf "await: %s" e);
            (* drain everything before reading the rings *)
            ignore (expect_ok (Serve.Client.request c P.Shutdown));
            Serve.Client.close c;
            (match Pool.Future.await coordinator with
            | Ok () -> ()
            | Error e -> Alcotest.failf "coordinator exit: %s" e);
            List.iter
              (fun server ->
                match Pool.Future.await server with
                | Ok () -> ()
                | Error e -> Alcotest.failf "shard exit: %s" e)
              [ s0; s1 ];
            (* everything ran in this process, so one export holds the
               client-side, coordinator and shard spans *)
            let events =
              match J.member "traceEvents" (Obs.Trace.export_json ()) with
              | Some (J.List l) -> l
              | _ -> Alcotest.fail "export has no traceEvents"
            in
            let with_our_trace name =
              List.exists
                (fun e ->
                  (match J.member "name" e with
                  | Some (J.String n) -> n = name
                  | _ -> false)
                  &&
                  match J.member "args" e with
                  | Some args -> (
                    match J.member "trace" args with
                    | Some (J.String t) -> t = "t-routed"
                    | _ -> false)
                  | None -> false)
                events
            in
            Alcotest.(check bool) "coordinator span tagged" true
              (with_our_trace "cluster.request");
            Alcotest.(check bool) "shard job span tagged" true
              (with_our_trace "serve.job.run")));
  ]

let () =
  Alcotest.run "cluster"
    [
      ("ring", ring_tests);
      ("protocol", version_tests);
      ("server", server_tests);
      ("trace", trace_tests);
    ]
