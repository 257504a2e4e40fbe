(* serve-smoke: CI guard for the resident scenario service, end to end
   against the real CLI binary.

   Starts `topoguard serve` as a child process on a temp socket with a
   journal, then over the wire: submits the 5-bus case-study scenario
   twice and proves the second answer comes from the content-addressed
   store (cached = true, store.hit counted, and *zero* new simplex
   pivots in either LP backend); forces one per-job wall-clock timeout
   and one cooperative cancellation (queued and running); finally sends
   SIGTERM and requires a graceful drain: exit status 0 and the socket
   file removed.  The journal left behind must answer the submission
   offline, with no server at all.

   CI entry point: dune build @serve-smoke *)

module J = Obs.Json
module P = Serve.Protocol

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("serve-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let tmp name = Filename.concat (Filename.get_temp_dir_name ()) name
let sock = tmp (Printf.sprintf "tg-smoke-%d.sock" (Unix.getpid ()))
let journal = tmp (Printf.sprintf "tg-smoke-%d.journal" (Unix.getpid ()))
let server_log = tmp (Printf.sprintf "tg-smoke-%d.log" (Unix.getpid ()))

let cleanup () =
  List.iter
    (fun p -> if Sys.file_exists p then try Sys.remove p with Sys_error _ -> ())
    [ sock; journal; server_log ]

let grid5 = Grid.Spec.print (Grid.Test_systems.case_study_1 ())
let grid57 = Grid.Spec.print (Grid.Test_systems.ieee 57)

let submit5 =
  {
    P.grid = grid5;
    mode = "topo";
    base = "case-study";
    increase = None;
    max_candidates = 50;
    single_line = true;
    backend = "lp";
    timeout = 0.;
  }

(* ---- JSON helpers ---- *)

let int_field name j =
  match J.member name j with
  | Some (J.Int n) -> n
  | _ -> fail "missing int field %S in %s" name (J.to_string j)

let bool_field name j =
  match J.member name j with
  | Some (J.Bool b) -> b
  | _ -> fail "missing bool field %S in %s" name (J.to_string j)

let str_field name j =
  match J.member name j with
  | Some (J.String s) -> s
  | _ -> fail "missing string field %S in %s" name (J.to_string j)

let expect_ok what = function
  | Error e -> fail "%s: transport: %s" what e
  | Ok resp ->
    if not (bool_field "ok" resp) then
      fail "%s: server error: %s" what (J.to_string resp)
    else resp

(* a counter out of the full Obs snapshot the stats op embeds *)
let counter stats name =
  match J.member "snapshot" stats with
  | Some snap -> (
    match J.member "counters" snap with
    | Some counters -> (
      match J.member name counters with Some (J.Int n) -> n | _ -> 0)
    | None -> fail "stats missing counters")
  | None -> fail "stats missing snapshot"

(* ---- child-process server ---- *)

let start_server cli =
  let log_fd =
    Unix.openfile server_log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let null = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cli
      [|
        cli; "serve"; "--socket"; sock; "--journal"; journal; "--verbose";
        "--queue-cap"; "8";
      |]
      null log_fd log_fd
  in
  Unix.close null;
  Unix.close log_fd;
  pid

let dump_server_log () =
  if Sys.file_exists server_log then begin
    let ic = open_in_bin server_log in
    let n = in_channel_length ic in
    prerr_string (really_input_string ic n);
    close_in ic
  end

let connect_retry () =
  let rec go n =
    match Serve.Client.connect sock with
    | Ok c -> c
    | Error e ->
      if n = 0 then begin
        dump_server_log ();
        fail "connect: %s" e
      end
      else begin
        Unix.sleepf 0.05;
        go (n - 1)
      end
  in
  go 200

let () =
  let cli =
    if Array.length Sys.argv > 1 then Sys.argv.(1)
    else fail "usage: serve_smoke <topoguard-cli>"
  in
  cleanup ();
  at_exit cleanup;
  let server_pid = start_server cli in
  let killed = ref false in
  let finally () =
    if not !killed then begin
      (try Unix.kill server_pid Sys.sigkill with Unix.Unix_error _ -> ());
      (try ignore (Unix.waitpid [] server_pid) with Unix.Unix_error _ -> ())
    end
  in
  (* [fail] exits without unwinding, so the clean-up runs from at_exit *)
  at_exit finally;
  let c = connect_retry () in

  (* 1. first submission: a real solve *)
  let r1 = expect_ok "submit 1" (Serve.Client.submit c submit5) in
  if bool_field "cached" r1 then fail "first submission claimed cached";
  let id1 = int_field "id" r1 in
  (match Serve.Client.await c ~id:id1 ~timeout:120. () with
  | Ok ("done", Some result) ->
    if str_field "outcome" result <> "attack_found" then
      fail "5-bus scenario should find an attack, got %s" (J.to_string result)
  | Ok (st, _) -> fail "first job ended as %s" st
  | Error e -> fail "await 1: %s" e);
  let stats1 = expect_ok "stats 1" (Serve.Client.request c P.Stats) in
  let pivots1 =
    counter stats1 "smt.simplex.pivots" + counter stats1 "lp.exact.pivots"
    + counter stats1 "lp.float.pivots"
  in
  let hits1 = counter stats1 "store.hit" in

  (* 2. identical resubmission: served by the store, no solver work *)
  let r2 = expect_ok "submit 2" (Serve.Client.submit c submit5) in
  if not (bool_field "cached" r2) then fail "second submission not cached";
  let id2 = int_field "id" r2 in
  (match Serve.Client.await c ~id:id2 ~timeout:30. () with
  | Ok ("done", Some result) ->
    if str_field "outcome" result <> "attack_found" then
      fail "cached result mismatch"
  | Ok (st, _) -> fail "cached job ended as %s" st
  | Error e -> fail "await 2: %s" e);
  let stats2 = expect_ok "stats 2" (Serve.Client.request c P.Stats) in
  let pivots2 =
    counter stats2 "smt.simplex.pivots" + counter stats2 "lp.exact.pivots"
    + counter stats2 "lp.float.pivots"
  in
  if counter stats2 "store.hit" <= hits1 then
    fail "store.hit did not increase on the cached resubmission";
  if pivots2 <> pivots1 then
    fail "cached resubmission ran the solver: %d new pivot(s)"
      (pivots2 - pivots1);
  (match J.member "jobs" stats2 with
  | Some jobs ->
    if int_field "cache_hits" jobs < 1 then fail "serve.jobs.cache_hits = 0"
  | None -> fail "stats missing jobs object");

  (* 2b. metrics exposition after the cached resubmission: every line
     obeys the Prometheus text grammar, the completed-jobs counter and
     queue-depth gauge are present, and the service histogram's +Inf
     bucket equals the completed counter within the one scrape *)
  let m = expect_ok "metrics" (Serve.Client.request c P.Metrics) in
  let text = str_field "metrics" m in
  let lines = List.filter (fun l -> l <> "") (String.split_on_char '\n' text) in
  if lines = [] then fail "empty metrics exposition";
  let samples = Hashtbl.create 64 in
  List.iter
    (fun line ->
      if line.[0] = '#' then begin
        match String.split_on_char ' ' line with
        | [ "#"; "TYPE"; _; ("counter" | "gauge" | "histogram") ] -> ()
        | _ -> fail "bad exposition comment %S" line
      end
      else
        match String.split_on_char ' ' line with
        | [ name; value ] -> (
          match float_of_string_opt value with
          | Some v -> Hashtbl.replace samples name v
          | None -> fail "unparsable sample value in %S" line)
        | _ -> fail "bad exposition sample %S" line)
    lines;
  let sample name =
    match Hashtbl.find_opt samples name with
    | Some v -> v
    | None -> fail "metric %s missing from the exposition" name
  in
  let completed = sample "topoguard_jobs_completed_total" in
  if completed < 2.0 then
    fail "topoguard_jobs_completed_total = %g, expected >= 2" completed;
  ignore (sample "topoguard_queue_depth");
  ignore (sample "topoguard_jobs_running");
  ignore (sample "topoguard_uptime_seconds");
  let inf = sample "topoguard_job_service_seconds_bucket{le=\"+Inf\"}" in
  if inf <> completed then
    fail "service histogram +Inf bucket %g <> completed total %g" inf completed;

  (* 3. per-job wall-clock timeout: a 57-bus exact analysis cannot finish
     in a millisecond; the deadline probe must end it as "timeout" *)
  let slow_submit increase timeout =
    {
      P.grid = grid57;
      mode = "topo";
      base = "proportional";
      increase;
      max_candidates = 200;
      single_line = true;
      backend = "lp";
      timeout;
    }
  in
  let r3 = expect_ok "submit timeout" (Serve.Client.submit c (slow_submit None 0.001)) in
  let id3 = int_field "id" r3 in
  (match Serve.Client.await c ~id:id3 ~timeout:120. () with
  | Ok ("timeout", _) -> ()
  | Ok (st, _) -> fail "timeout job ended as %s" st
  | Error e -> fail "await timeout job: %s" e);

  (* 4. cancellation, both flavours: a long job occupies the single
     worker; a second job behind it is cancelled while queued
     (immediate), then the running one cooperatively *)
  let r4 = expect_ok "submit slow" (Serve.Client.submit c (slow_submit (Some "3") 300.)) in
  let id4 = int_field "id" r4 in
  let r5 =
    expect_ok "submit queued"
      (Serve.Client.submit c { submit5 with P.increase = Some "2" })
  in
  let id5 = int_field "id" r5 in
  let rc5 = expect_ok "cancel queued" (Serve.Client.request c (P.Cancel id5)) in
  if str_field "status" rc5 <> "cancelled" then
    fail "queued job not cancelled immediately (status %s)"
      (str_field "status" rc5);
  ignore (expect_ok "cancel running" (Serve.Client.request c (P.Cancel id4)));
  (match Serve.Client.await c ~id:id4 ~timeout:120. () with
  | Ok ("cancelled", _) -> ()
  | Ok (st, _) -> fail "running job ended as %s after cancel" st
  | Error e -> fail "await cancelled job: %s" e);
  let stats3 = expect_ok "stats 3" (Serve.Client.request c P.Stats) in
  (match J.member "jobs" stats3 with
  | Some jobs ->
    if int_field "timeout" jobs < 1 then fail "serve.jobs.timeout = 0";
    if int_field "cancelled" jobs < 2 then
      fail "serve.jobs.cancelled = %d, expected 2" (int_field "cancelled" jobs)
  | None -> fail "stats 3 missing jobs object");
  Serve.Client.close c;

  (* 5. SIGTERM: graceful drain, exit 0, socket removed *)
  Unix.kill server_pid Sys.sigterm;
  killed := true;
  (match Unix.waitpid [] server_pid with
  | _, Unix.WEXITED 0 -> ()
  | _, Unix.WEXITED n ->
    dump_server_log ();
    fail "server exited %d after SIGTERM" n
  | _, (Unix.WSIGNALED _ | Unix.WSTOPPED _) ->
    dump_server_log ();
    fail "server killed by signal instead of draining");
  if Sys.file_exists sock then fail "socket file left behind after drain";

  (* 6. the journal outlives the server: offline lookup answers the same
     submission with no server running *)
  (match Grid.Spec.parse grid5 with
  | Error e -> fail "parse: %s" e
  | Ok spec -> (
    match Serve.Client.offline_lookup ~journal ~spec ~submit:submit5 with
    | Ok (Some result) ->
      if str_field "outcome" result <> "attack_found" then
        fail "offline result mismatch"
    | Ok None -> fail "offline lookup missed after a served job"
    | Error e -> fail "offline lookup: %s" e));

  print_endline "serve-smoke: OK (cache hit with zero new pivots, metrics \
                 exposition consistent, timeout, cancel x2, graceful SIGTERM \
                 drain, offline journal lookup)"
