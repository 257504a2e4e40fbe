(* Tests for lib/serve: protocol encode/decode roundtrips, job-key
   determinism, and an in-process server (on a detached domain, over a
   temp socket) exercised through the client: submit, await, cached
   resubmit, stats, cancel, shutdown, the offline journal lookup, and
   the parked [wait] verb. *)

module J = Obs.Json
module P = Serve.Protocol

let grid_text = Grid.Spec.print (Grid.Test_systems.case_study_1 ())

let submit_of t =
  {
    P.grid = grid_text;
    mode = "topo";
    base = "case-study";
    increase = None;
    max_candidates = 50;
    single_line = true;
    backend = "lp";
    timeout = t;
  }

(* ---- protocol ---- *)

let roundtrip req =
  match P.request_of_json (P.json_of_request req) with
  | Ok r -> r
  | Error e -> Alcotest.failf "roundtrip: %s" e

let protocol_tests =
  [
    Alcotest.test_case "submit roundtrips through JSON" `Quick (fun () ->
        let s = { (submit_of 2.5) with P.increase = Some "3.5" } in
        match roundtrip (P.Submit s) with
        | P.Submit s' ->
          Alcotest.(check string) "grid" s.P.grid s'.P.grid;
          Alcotest.(check (option string)) "increase" s.P.increase s'.P.increase;
          Alcotest.(check bool) "single_line" s.P.single_line s'.P.single_line;
          Alcotest.(check int) "max_candidates" s.P.max_candidates s'.P.max_candidates;
          Alcotest.(check string) "backend" s.P.backend s'.P.backend;
          Alcotest.(check (float 1e-9)) "timeout" s.P.timeout s'.P.timeout
        | _ -> Alcotest.fail "wrong constructor");
    Alcotest.test_case "control ops roundtrip" `Quick (fun () ->
        List.iter
          (fun req ->
            Alcotest.(check bool) "same" true (roundtrip req = req))
          [ P.Status 7; P.Result 3; P.Wait (4, Some 2.5); P.Wait (5, None);
            P.Cancel 12; P.Stats; P.Metrics; P.Shutdown ]);
    Alcotest.test_case "request_id extraction" `Quick (fun () ->
        Alcotest.(check (option string)) "present" (Some "abc")
          (P.request_id_of_json
             (J.Obj [ ("op", J.String "stats"); ("request_id", J.String "abc") ]));
        Alcotest.(check (option string)) "absent" None
          (P.request_id_of_json (J.Obj [ ("op", J.String "stats") ]));
        Alcotest.(check (option string)) "wrong type" None
          (P.request_id_of_json
             (J.Obj [ ("op", J.String "stats"); ("request_id", J.Int 3) ])));
    Alcotest.test_case "invalid enum values are rejected" `Quick (fun () ->
        List.iter
          (fun j ->
            match P.request_of_json j with
            | Error _ -> ()
            | Ok _ -> Alcotest.fail "accepted invalid request")
          [
            J.Obj [ ("op", J.String "warp") ];
            J.Obj [ ("op", J.String "submit"); ("grid", J.String "x");
                    ("mode", J.String "sideways") ];
            J.Obj [ ("op", J.String "submit"); ("grid", J.String "x");
                    ("backend", J.String "quantum") ];
            J.Obj [ ("op", J.String "status") ];
            J.Obj [ ("op", J.String "wait"); ("timeout", J.Float 1.) ];
          ]);
    Alcotest.test_case "job key ignores the timeout" `Quick (fun () ->
        let spec = Grid.Test_systems.case_study_1 () in
        Alcotest.(check string) "timeout-independent"
          (P.job_key spec (submit_of 1.))
          (P.job_key spec (submit_of 99.)));
    Alcotest.test_case "job key depends on the increase override" `Quick
      (fun () ->
        let spec = Grid.Test_systems.case_study_1 () in
        let s = submit_of 0. in
        Alcotest.(check bool) "increase matters" false
          (P.job_key spec s = P.job_key spec { s with P.increase = Some "9" }));
    Alcotest.test_case "job key depends on the file's row order" `Quick
      (fun () ->
        (* results embed line indices in the submission's row order, so a
           row-permuted copy of the same grid must get its own key (miss
           and recompute) rather than a cache hit with misnumbered
           vectors *)
        let module N = Grid.Network in
        let spec = Grid.Test_systems.case_study_1 () in
        let g = spec.Grid.Spec.grid in
        let nl = N.n_lines g in
        let swap a i j =
          let x = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- x
        in
        let lines = Array.copy g.N.lines in
        swap lines 0 1;
        let meas = Array.copy g.N.meas in
        swap meas 0 1;
        swap meas nl (nl + 1);
        let spec' = { spec with Grid.Spec.grid = { g with N.lines; meas } } in
        let s = submit_of 0. in
        Alcotest.(check bool) "permuted rows change the key" false
          (P.job_key spec s = P.job_key spec' s);
        Alcotest.(check string) "stable for the same file"
          (P.job_key spec s) (P.job_key spec s));
  ]

(* ---- line framing ---- *)

module F = P.Frame

(* every line the streaming splitter yields for [chunks], fed in order *)
let split_all chunks =
  let s = F.splitter () in
  let out = ref [] in
  List.iter
    (fun c ->
      F.feed s (Bytes.of_string c) 0 (String.length c);
      let rec drain () =
        match F.next s with
        | `Line l ->
          out := l :: !out;
          drain ()
        | `Partial -> ()
        | `Oversized -> Alcotest.fail "unexpected Oversized"
      in
      drain ())
    chunks;
  List.rev !out

(* the blocking reader's view of [chunks], written one by one from
   another domain into a socketpair *)
let read_all chunks =
  let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let writer =
    Pool.detached (fun () ->
        List.iter
          (fun c ->
            ignore (Unix.write_substring b c 0 (String.length c)))
          chunks;
        Unix.close b)
  in
  let r = F.reader a in
  let rec go acc =
    match F.read_line r with
    | `Line l -> go (l :: acc)
    | `Eof -> List.rev acc
    | `Oversized -> Alcotest.fail "unexpected Oversized"
  in
  let lines = go [] in
  Pool.Future.await writer;
  Unix.close a;
  lines

(* cut [s] at the given chunk sizes, cycling through them *)
let chunk s sizes =
  let n = String.length s in
  let rec go ofs sizes acc =
    if ofs >= n then List.rev acc
    else
      match sizes with
      | [] -> go ofs [ 1 ] acc
      | k :: rest ->
        let k = min k (n - ofs) in
        go (ofs + k) (rest @ [ k ]) (String.sub s ofs k :: acc)
  in
  go 0 sizes []

let frame_prop =
  let open QCheck2.Gen in
  let line =
    string_size ~gen:(oneofl [ 'a'; 'z'; ' '; '{'; '"'; '\r'; '\t' ]) (0 -- 300)
  in
  let sizes = list_size (1 -- 6) (oneof [ pure 1; 1 -- 7; 1 -- 700 ]) in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60
       ~name:"any chunking frames the same lines, streaming and blocking"
       (pair (list_size (0 -- 25) line) sizes)
       (fun (lines, sizes) ->
         let stream = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
         let chunks = chunk stream sizes in
         split_all chunks = lines && read_all chunks = lines))

let frame_tests =
  [
    frame_prop;
    Alcotest.test_case "one-byte chunks and many lines per chunk" `Quick
      (fun () ->
        let lines = [ "a"; ""; "bc"; String.make 5000 'x'; "d" ] in
        let stream = String.concat "" (List.map (fun l -> l ^ "\n") lines) in
        Alcotest.(check (list string)) "1-byte" lines
          (split_all (chunk stream [ 1 ]));
        Alcotest.(check (list string)) "one chunk" lines (split_all [ stream ]));
    Alcotest.test_case "cap edges: max_line passes, max_line + 1 does not"
      `Quick (fun () ->
        let max_line = 8 in
        let at = String.make max_line 'x' and over = String.make (max_line + 1) 'x' in
        let next_of data =
          let s = F.splitter ~max_line () in
          F.feed s (Bytes.of_string data) 0 (String.length data);
          F.next s
        in
        let show = function
          | `Line l -> "line " ^ l
          | `Partial -> "partial"
          | `Oversized -> "oversized"
          | `Eof -> "eof"
        in
        let check name expected got =
          Alcotest.(check string) name (show expected) (show got)
        in
        (* the complete-line path *)
        check "complete at cap" (`Line at) (next_of (at ^ "\n"));
        check "complete over cap" `Oversized (next_of (over ^ "\n"));
        (* the still-accumulating path *)
        check "partial at cap" `Partial (next_of at);
        check "partial over cap" `Oversized (next_of over);
        (* the same edges through the blocking reader *)
        let blocking data ~close =
          let a, b = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
          ignore (Unix.write_substring b data 0 (String.length data));
          if close then Unix.close b;
          let got = F.read_line (F.reader ~max_line a) in
          Unix.close a;
          if not close then Unix.close b;
          got
        in
        check "blocking complete at cap" (`Line at) (blocking (at ^ "\n") ~close:false);
        check "blocking complete over cap" `Oversized
          (blocking (over ^ "\n") ~close:false);
        check "blocking partial at cap, then EOF" `Eof (blocking at ~close:true);
        check "blocking partial over cap" `Oversized (blocking over ~close:false));
  ]

(* ---- in-process server over a temp socket ---- *)

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

let connect_retry path =
  let rec go n =
    match Serve.Client.connect path with
    | Ok c -> c
    | Error e ->
      if n = 0 then Alcotest.failf "connect: %s" e
      else begin
        Unix.sleepf 0.05;
        go (n - 1)
      end
  in
  go 100

let str_field name j =
  match J.member name j with
  | Some (J.String s) -> s
  | _ -> Alcotest.failf "missing string field %S in %s" name (J.to_string j)

(* a job that keeps the single worker busy until it is cancelled: 57-bus
   state-infection analysis, with a per-job deadline as the backstop *)
let slow_submit =
  {
    (submit_of 60.) with
    P.grid = Grid.Spec.print (Grid.Test_systems.ieee 57);
    mode = "state";
    base = "proportional";
    single_line = false;
    max_candidates = 200;
  }

(* a default server (one worker) on a fresh socket, shut down after [f] *)
let with_server name f =
  let socket = tmp (Printf.sprintf "tg-serve-%s-%d.sock" name (Unix.getpid ())) in
  if Sys.file_exists socket then Sys.remove socket;
  let cfg = Serve.Server.default_config ~socket_path:socket in
  let server = Pool.detached (fun () -> Serve.Server.run cfg) in
  Fun.protect
    ~finally:(fun () -> if Sys.file_exists socket then Sys.remove socket)
    (fun () ->
      let c = connect_retry socket in
      f socket c;
      ignore (expect_ok (Serve.Client.request c P.Shutdown));
      Serve.Client.close c;
      match Pool.Future.await server with
      | Ok () -> ()
      | Error e -> Alcotest.failf "server exit: %s" e)

let counter name =
  Option.value ~default:0 (List.assoc_opt name (Obs.snapshot ()).Obs.counters)

let hist_count name =
  match List.assoc_opt name (Obs.snapshot ()).Obs.histograms with
  | Some h -> h.Obs.h_count
  | None -> 0

let wait_tests =
  [
    Alcotest.test_case "wait parks until the job ends, on every connection" `Slow
      (fun () ->
        with_server "w" @@ fun socket c ->
        let now = Unix.gettimeofday in
        let id_slow = int_field "id" (expect_ok (Serve.Client.submit c slow_submit)) in
        (* queued behind the slow job on the single worker *)
        let id_q =
          int_field "id"
            (expect_ok (Serve.Client.submit c { (submit_of 0.) with P.increase = Some "2" }))
        in
        (* an unknown id errors at once *)
        let t0 = now () in
        (match Serve.Client.request c (P.Wait (999, Some 30.)) with
        | Ok resp -> Alcotest.(check bool) "unknown id: ok=false" false (bool_field "ok" resp)
        | Error e -> Alcotest.failf "wait 999: %s" e);
        Alcotest.(check bool) "unknown id answered at once" true (now () -. t0 < 1.);
        (* a timeout answers with the current status and no result *)
        let t0 = now () in
        let r = expect_ok (Serve.Client.request c (P.Wait (id_slow, Some 0.1))) in
        Alcotest.(check string) "still running" "running" (str_field "status" r);
        Alcotest.(check bool) "no result" true (J.member "result" r = None);
        Alcotest.(check bool) "held for the timeout" true (now () -. t0 >= 0.1);
        (* parked waits on their own connections *)
        let waiter id =
          Pool.detached (fun () ->
              let wc = connect_retry socket in
              let r = Serve.Client.request wc (P.Wait (id, Some 60.)) in
              let at = now () in
              Serve.Client.close wc;
              (expect_ok r, at))
        in
        let w_queued = waiter id_q in
        let w_slow = [ waiter id_slow; waiter id_slow ] in
        (* a line pipelined behind a parked wait is answered after it *)
        let pipelined =
          match Serve.Transport.dial (Serve.Transport.Unix_sock socket) with
          | Ok fd ->
            Unix.setsockopt_float fd Unix.SO_RCVTIMEO 30.;
            let line req = J.to_string (P.json_of_request req) in
            P.Frame.write_line fd (line (P.Wait (id_q, Some 60.)) ^ "\n" ^ line (P.Status id_q));
            fd
          | Error e -> Alcotest.failf "dial: %s" e
        in
        (* a client that leaves while parked *)
        (match Serve.Transport.dial (Serve.Transport.Unix_sock socket) with
        | Ok fd ->
          P.Frame.write_line fd (J.to_string (P.json_of_request (P.Wait (id_slow, Some 60.))));
          Unix.sleepf 0.05;
          Unix.close fd
        | Error e -> Alcotest.failf "dial: %s" e);
        Unix.sleepf 0.3;
        (* the next request is undisturbed, and answered promptly *)
        let t0 = now () in
        ignore (expect_ok (Serve.Client.request c P.Stats));
        Alcotest.(check bool) "stats while waits are parked" true (now () -. t0 < 1.);
        Alcotest.(check string) "slow job still running" "running"
          (str_field "status" (expect_ok (Serve.Client.request c (P.Status id_slow))));
        let cancelled_at = now () in
        ignore (expect_ok (Serve.Client.request c (P.Cancel id_slow)));
        (* both waiters on the cancelled job answered, after the cancel *)
        List.iter
          (fun w ->
            let r, at = Pool.Future.await w in
            Alcotest.(check string) "waiter sees the cancel" "cancelled" (str_field "status" r);
            Alcotest.(check bool) "answered after the cancel" true (at >= cancelled_at))
          w_slow;
        (* the queued job ran next; its waiter got the result object *)
        let r, at = Pool.Future.await w_queued in
        Alcotest.(check string) "queued job done" "done" (str_field "status" r);
        Alcotest.(check bool) "result delivered" true (J.member "result" r <> None);
        Alcotest.(check bool) "answered after the cancel" true (at >= cancelled_at);
        let reader = P.Frame.reader pipelined in
        let next_reply () =
          match P.Frame.read_line reader with
          | `Line l -> (match J.of_string l with Ok j -> j | Error e -> Alcotest.fail e)
          | `Eof | `Oversized -> Alcotest.fail "pipelined connection lost"
        in
        let first = next_reply () in
        Alcotest.(check bool) "the wait's reply comes first" true (J.member "result" first <> None);
        Alcotest.(check string) "then the status behind it" "done" (str_field "status" (next_reply ()));
        Unix.close pipelined);
    Alcotest.test_case "status is current; await is one wait, no sleeps" `Slow
      (fun () ->
        with_server "s" @@ fun _ c ->
        let submit inc =
          int_field "id"
            (expect_ok (Serve.Client.submit c { (submit_of 0.) with P.increase = Some inc }))
        in
        (* warm the solver, then: a worker that finished is seen by the
           next request, not only after the loop's next 50 ms tick *)
        (match Serve.Client.await c ~id:(submit "5") ~timeout:60. () with
        | Ok ("done", Some _) -> ()
        | Ok (st, _) -> Alcotest.failf "warm-up ended as %s" st
        | Error e -> Alcotest.failf "warm-up await: %s" e);
        let id = submit "6" in
        Unix.sleepf 0.03;
        Alcotest.(check string) "done 30 ms after submit" "done"
          (str_field "status" (expect_ok (Serve.Client.request c (P.Status id))));
        (* Client.await of a queued job: one wait request, no backoff *)
        let id = submit "7" in
        let requests0 = counter "serve.requests" in
        let backoff0 = hist_count "client.await.backoff.seconds" in
        (match Serve.Client.await c ~id ~timeout:60. () with
        | Ok ("done", Some _) -> ()
        | Ok (st, _) -> Alcotest.failf "await ended as %s" st
        | Error e -> Alcotest.failf "await: %s" e);
        Alcotest.(check int) "one request" 1 (counter "serve.requests" - requests0);
        Alcotest.(check int) "no backoff sample" 0
          (hist_count "client.await.backoff.seconds" - backoff0));
  ]

let server_tests =
  [
    Alcotest.test_case "submit/await/cached-resubmit/stats/shutdown" `Slow
      (fun () ->
        let socket = tmp (Printf.sprintf "tg-serve-%d.sock" (Unix.getpid ())) in
        let journal = tmp (Printf.sprintf "tg-serve-%d.j" (Unix.getpid ())) in
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
          [ socket; journal ];
        let cfg =
          { (Serve.Server.default_config ~socket_path:socket) with
            Serve.Server.journal = Some journal }
        in
        let server = Pool.detached (fun () -> Serve.Server.run cfg) in
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
              [ socket; journal ])
          (fun () ->
            let c = connect_retry socket in
            (* first submission computes *)
            let r1 = expect_ok (Serve.Client.submit c (submit_of 0.)) in
            Alcotest.(check bool) "first not cached" false (bool_field "cached" r1);
            let id1 = int_field "id" r1 in
            (match Serve.Client.await c ~id:id1 ~timeout:60. () with
            | Ok ("done", Some result) -> (
              match J.member "outcome" result with
              | Some (J.String "attack_found") -> ()
              | _ -> Alcotest.failf "unexpected result %s" (J.to_string result))
            | Ok (st, _) -> Alcotest.failf "terminal status %s" st
            | Error e -> Alcotest.failf "await: %s" e);
            (* identical resubmission answers from the store *)
            let r2 = expect_ok (Serve.Client.submit c (submit_of 0.)) in
            Alcotest.(check bool) "second cached" true (bool_field "cached" r2);
            (* a cached job still serves its result *)
            let id2 = int_field "id" r2 in
            (match Serve.Client.request c (P.Result id2) with
            | Ok resp ->
              Alcotest.(check bool) "has result" true
                (J.member "result" resp <> None)
            | Error e -> Alcotest.failf "result: %s" e);
            (* stats reflect both *)
            let stats = expect_ok (Serve.Client.request c P.Stats) in
            (match J.member "jobs" stats with
            | Some jobs ->
              Alcotest.(check int) "submitted" 2 (int_field "submitted" jobs);
              Alcotest.(check int) "cache hits" 1 (int_field "cache_hits" jobs);
              Alcotest.(check int) "done" 2 (int_field "done" jobs)
            | None -> Alcotest.fail "stats missing jobs");
            (* unknown job ids are errors, not crashes *)
            (match Serve.Client.request c (P.Status 999) with
            | Ok resp ->
              Alcotest.(check bool) "ok=false" false (bool_field "ok" resp)
            | Error e -> Alcotest.failf "status 999: %s" e);
            (* graceful shutdown via the protocol *)
            ignore (expect_ok (Serve.Client.request c P.Shutdown));
            Serve.Client.close c;
            (match Pool.Future.await server with
            | Ok () -> ()
            | Error e -> Alcotest.failf "server exit: %s" e);
            Alcotest.(check bool) "socket removed" false (Sys.file_exists socket);
            (* the journal now answers the same submission offline *)
            let spec = Grid.Test_systems.case_study_1 () in
            match
              Serve.Client.offline_lookup ~journal ~spec ~submit:(submit_of 0.)
            with
            | Ok (Some result) -> (
              match J.member "outcome" result with
              | Some (J.String "attack_found") -> ()
              | _ -> Alcotest.fail "offline result mismatch")
            | Ok None -> Alcotest.fail "offline lookup missed"
            | Error e -> Alcotest.failf "offline lookup: %s" e));
    Alcotest.test_case "cancel of a queued job and drain on shutdown" `Slow
      (fun () ->
        let socket =
          tmp (Printf.sprintf "tg-serve-c-%d.sock" (Unix.getpid ()))
        in
        if Sys.file_exists socket then Sys.remove socket;
        let cfg = Serve.Server.default_config ~socket_path:socket in
        let server = Pool.detached (fun () -> Serve.Server.run cfg) in
        Fun.protect
          ~finally:(fun () -> if Sys.file_exists socket then Sys.remove socket)
          (fun () ->
            let c = connect_retry socket in
            (* occupy the single worker with a slow job (57-bus, exact
               backend) so the next submission stays queued *)
            let slow =
              {
                (submit_of 0.) with
                P.grid = Grid.Spec.print (Grid.Test_systems.ieee 57);
                base = "proportional";
                single_line = true;
              }
            in
            let r_slow = expect_ok (Serve.Client.submit c slow) in
            let id_slow = int_field "id" r_slow in
            (* distinct key from the slow job: different increase *)
            let queued = { (submit_of 0.) with P.increase = Some "2" } in
            let r_q = expect_ok (Serve.Client.submit c queued) in
            let id_q = int_field "id" r_q in
            (* cancel it while it waits for the worker *)
            let r_c = expect_ok (Serve.Client.request c (P.Cancel id_q)) in
            Alcotest.(check string) "cancelled immediately" "cancelled"
              (match J.member "status" r_c with
              | Some (J.String s) -> s
              | _ -> "?");
            (* cancel the running job too: cooperative, needs a probe *)
            ignore (expect_ok (Serve.Client.request c (P.Cancel id_slow)));
            (match Serve.Client.await c ~id:id_slow ~timeout:60. () with
            | Ok ("cancelled", _) -> ()
            | Ok (st, _) -> Alcotest.failf "slow job ended as %s" st
            | Error e -> Alcotest.failf "await slow: %s" e);
            ignore (expect_ok (Serve.Client.request c P.Shutdown));
            Serve.Client.close c;
            match Pool.Future.await server with
            | Ok () -> ()
            | Error e -> Alcotest.failf "server exit: %s" e));
    Alcotest.test_case "request ids, metrics exposition, access log" `Slow
      (fun () ->
        let socket =
          tmp (Printf.sprintf "tg-serve-m-%d.sock" (Unix.getpid ()))
        in
        let access = tmp (Printf.sprintf "tg-serve-m-%d.log" (Unix.getpid ())) in
        List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
          [ socket; access ];
        let cfg =
          { (Serve.Server.default_config ~socket_path:socket) with
            Serve.Server.access_log = Some access }
        in
        let server = Pool.detached (fun () -> Serve.Server.run cfg) in
        Fun.protect
          ~finally:(fun () ->
            List.iter (fun p -> if Sys.file_exists p then Sys.remove p)
              [ socket; access ])
          (fun () ->
            let c = connect_retry socket in
            (* a client-supplied request id is echoed verbatim *)
            (match
               Serve.Client.rpc c
                 (J.Obj
                    [ ("op", J.String "stats"); ("request_id", J.String "abc-1") ])
             with
            | Ok resp ->
              Alcotest.(check string) "echoed" "abc-1"
                (match J.member "request_id" resp with
                | Some (J.String s) -> s
                | _ -> "?")
            | Error e -> Alcotest.failf "stats rpc: %s" e);
            (* a request without one gets a generated id *)
            let r0 = expect_ok (Serve.Client.request c P.Stats) in
            (match J.member "request_id" r0 with
            | Some (J.String _) -> ()
            | _ -> Alcotest.fail "no generated request_id");
            let sample_of text name =
              let v = ref None in
              List.iter
                (fun line ->
                  if String.length line > 0 && line.[0] <> '#' then
                    match String.split_on_char ' ' line with
                    | [ n; value ] when n = name ->
                      v := float_of_string_opt value
                    | _ -> ())
                (String.split_on_char '\n' text);
              match !v with
              | Some f -> f
              | None -> Alcotest.failf "metric %s not found" name
            in
            let scrape () =
              match
                J.member "metrics" (expect_ok (Serve.Client.request c P.Metrics))
              with
              | Some (J.String s) -> s
              | _ -> Alcotest.fail "metrics payload missing"
            in
            (* the registry is process-global (earlier test cases ran
               servers too), so counts are asserted as deltas *)
            let completed0 =
              sample_of (scrape ()) "topoguard_jobs_completed_total"
            in
            (* one computed job, one cached resubmission *)
            let r1 = expect_ok (Serve.Client.submit c (submit_of 0.)) in
            let id1 = int_field "id" r1 in
            (match Serve.Client.await c ~id:id1 ~timeout:60. () with
            | Ok ("done", Some _) -> ()
            | Ok (st, _) -> Alcotest.failf "terminal status %s" st
            | Error e -> Alcotest.failf "await: %s" e);
            let r2 = expect_ok (Serve.Client.submit c (submit_of 0.)) in
            Alcotest.(check bool) "cached" true (bool_field "cached" r2);
            (* metrics exposition: the completed counter matches the
               service histogram's +Inf bucket within one scrape *)
            let text = scrape () in
            let sample = sample_of text in
            let completed = sample "topoguard_jobs_completed_total" in
            Alcotest.(check (float 1e-9)) "two jobs completed" 2.
              (completed -. completed0);
            ignore (sample "topoguard_queue_depth");
            ignore (sample "topoguard_jobs_running");
            let inf_bucket =
              sample "topoguard_job_service_seconds_bucket{le=\"+Inf\"}"
            in
            Alcotest.(check (float 1e-9)) "+Inf bucket = completed" completed
              inf_bucket;
            ignore (expect_ok (Serve.Client.request c P.Shutdown));
            Serve.Client.close c;
            (match Pool.Future.await server with
            | Ok () -> ()
            | Error e -> Alcotest.failf "server exit: %s" e);
            (* every access-log line is one JSON object with the schema *)
            let ic = open_in access in
            let lines = ref [] in
            (try
               while true do
                 lines := input_line ic :: !lines
               done
             with End_of_file -> close_in ic);
            let records =
              List.rev_map
                (fun line ->
                  match J.of_string line with
                  | Ok j -> j
                  | Error e ->
                    Alcotest.failf "bad access-log line %S: %s" line e)
                !lines
            in
            let kind j =
              match J.member "kind" j with Some (J.String s) -> s | _ -> "?"
            in
            let requests = List.filter (fun j -> kind j = "request") records in
            let jobs = List.filter (fun j -> kind j = "job") records in
            Alcotest.(check bool) "has request records" true (requests <> []);
            Alcotest.(check int) "two terminal jobs" 2 (List.length jobs);
            List.iter
              (fun j ->
                List.iter
                  (fun f ->
                    if J.member f j = None then
                      Alcotest.failf "request record missing %S: %s" f
                        (J.to_string j))
                  [ "ts"; "request_id"; "verb"; "outcome"; "latency_s" ])
              requests;
            List.iter
              (fun j ->
                List.iter
                  (fun f ->
                    if J.member f j = None then
                      Alcotest.failf "job record missing %S: %s" f
                        (J.to_string j))
                  [ "ts"; "id"; "key"; "status"; "queue_wait_s"; "service_s" ])
              jobs;
            Alcotest.(check bool) "client-supplied id logged" true
              (List.exists
                 (fun j ->
                   J.member "request_id" j = Some (J.String "abc-1"))
                 requests)));
  ]

let () =
  Alcotest.run "serve"
    [
      ("protocol", protocol_tests);
      ("frame", frame_tests);
      ("server", server_tests);
      ("wait", wait_tests);
    ]
