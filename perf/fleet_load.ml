(* The fleet workloads: the real `topoguard fleet` binary (two shards on
   loopback TCP, one worker domain each) driven open loop by this
   process.

   - fleet-warm sends six pre-warmed scenarios at 200/s: every answer
     is a store hit, so it times the client -> coordinator -> shard ->
     store read path with the solver idle.
   - fleet-cold sends 4/s distinct 5-bus jobs to a fresh fleet
     journaling to disk: every arrival queues, solves, and is inserted
     into the store and the journal — the write path, where the client's
     await polling sets most of the latency.

   The open-loop driver is this benchmark's own: arrival k is due at
   [t0 + k/rate]; at most two client domains, each owning one
   connection, claim arrivals from one atomic counter, and each answer
   is timed from its due time, so a stall also delays the arrivals
   queued behind it. *)

module J = Obs.Json
module P = Serve.Protocol
module C = Serve.Client
module Q = Numeric.Rat
module I = Topoguard.Impact
open Report

(* ---- the fleet process ---- *)

type fleet = {
  pid : int;
  endpoint : Serve.Transport.endpoint;
  trace : string option;  (* the coordinator's file; shard i appends .shard-i *)
}

(* fleets started and not yet stopped; the recorder stops them on every
   way out *)
let live = ref []

let port_free port =
  let s = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
  Fun.protect
    ~finally:(fun () -> Unix.close s)
    (fun () ->
      Unix.setsockopt s Unix.SO_REUSEADDR true;
      match Unix.bind s (Unix.ADDR_INET (Unix.inet_addr_loopback, port)) with
      | () -> true
      | exception Unix.Unix_error _ -> false)

let rng = lazy (Random.State.make_self_init ())

(* three consecutive free loopback ports: two shards, then the
   coordinator *)
let free_ports () =
  let rec pick tries =
    let base = 20000 + Random.State.int (Lazy.force rng) 40000 in
    if List.for_all port_free [ base; base + 1; base + 2 ] then base
    else if tries = 0 then failwith "no three free consecutive loopback ports"
    else pick (tries - 1)
  in
  pick 100

let exited pid =
  match Unix.waitpid [ Unix.WNOHANG ] pid with
  | 0, _ -> false
  | _ -> true
  | exception Unix.Unix_error (Unix.ECHILD, _, _) -> true

let wait_exit pid ~timeout =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec go () =
    if exited pid then true
    else if Unix.gettimeofday () > deadline then false
    else begin
      Unix.sleepf 0.01;
      go ()
    end
  in
  go ()

(* the shutdown verb drains both shards and the coordinator; signals
   only for a fleet that does not drain *)
let stop f =
  if List.memq f !live then begin
    live := List.filter (fun g -> g != f) !live;
    (match C.connect_endpoint f.endpoint with
    | Ok c ->
      ignore (C.request c P.Shutdown);
      C.close c
    | Error _ -> ());
    if not (wait_exit f.pid ~timeout:30.) then begin
      (try Unix.kill f.pid Sys.sigterm with Unix.Unix_error _ -> ());
      if not (wait_exit f.pid ~timeout:10.) then begin
        (try Unix.kill f.pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (wait_exit f.pid ~timeout:10.)
      end
    end
  end

let spawn ~cli ~dir ~journal ~traced =
  let base = free_ports () in
  let endpoint = Serve.Transport.Tcp ("127.0.0.1", base + 2) in
  let file ext = Filename.concat dir (Printf.sprintf "fleet-%d.%s" base ext) in
  let log = file "log" in
  let trace = if traced then Some (file "trace.json") else None in
  let opt flag = function Some v -> [ flag; v ] | None -> [] in
  let journal_dir =
    if journal then begin
      let d = file "journals" in
      Unix.mkdir d 0o755;
      Some d
    end
    else None
  in
  let argv =
    [ cli; "fleet"; "--listen"; Serve.Transport.endpoint_to_string endpoint ]
    @ [ "--shards"; "2"; "--host"; "127.0.0.1"; "--base-port"; string_of_int base ]
    @ [ "--jobs"; "1" ]
    @ opt "--journal-dir" journal_dir
    @ opt "--trace" trace
  in
  let fd = Unix.openfile log [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
  let pid = Unix.create_process cli (Array.of_list argv) Unix.stdin fd fd in
  Unix.close fd;
  let f = { pid; endpoint; trace } in
  live := f :: !live;
  (* the coordinator listens only once both shards accept *)
  let deadline = Unix.gettimeofday () +. 30. in
  let rec ready () =
    match C.connect_endpoint endpoint with
    | Ok c -> C.close c
    | Error e ->
      if exited pid then begin
        live := List.filter (fun g -> g != f) !live;
        failwith ("fleet exited during start-up:\n" ^ read_file log)
      end
      else if Unix.gettimeofday () > deadline then begin
        stop f;
        failwith ("fleet never accepted: " ^ e)
      end
      else begin
        Unix.sleepf 0.002;
        ready ()
      end
  in
  ready ();
  f

(* ---- scraping the metrics verb ---- *)

(* Prometheus samples summed over their labels (the coordinator relabels
   each shard's series with shard="...") *)
let scrape conn =
  match C.request conn P.Metrics with
  | Error e -> failwith ("metrics: " ^ e)
  | Ok resp ->
    let tbl = Hashtbl.create 256 in
    let text = Option.value ~default:"" (str_member "metrics" resp) in
    List.iter
      (fun line ->
        if line <> "" && line.[0] <> '#' then
          match String.rindex_opt line ' ' with
          | None -> ()
          | Some sp -> (
            let key = String.sub line 0 sp in
            let name =
              match String.index_opt key '{' with
              | Some i -> String.sub key 0 i
              | None -> key
            in
            match float_of_string_opt (String.sub line (sp + 1) (String.length line - sp - 1)) with
            | Some v ->
              Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))
            | None -> ()))
      (String.split_on_char '\n' text);
    tbl

let scrape_endpoint endpoint =
  match C.connect_endpoint endpoint with
  | Error e -> failwith ("metrics: " ^ e)
  | Ok c -> Fun.protect ~finally:(fun () -> C.close c) (fun () -> scrape c)

let sample tbl name = Option.value ~default:0. (Hashtbl.find_opt tbl name)

(* registry names through the exposition's naming, over a window *)
let source ~before ~after =
  let delta name = sample after name -. sample before name in
  let prom n = "topoguard_" ^ Obs.Prometheus.sanitize n in
  {
    Budget.counter = (fun n -> delta (prom n ^ "_total"));
    hist_sum = (fun n -> delta (prom n ^ "_sum"));
  }

(* ---- the open-loop driver ---- *)

type arrival = {
  k : int;
  lag : float;  (* send time - due time *)
  submit_s : float;
  await_s : float;  (* from the submit's reply to the answer *)
  e2e : float;  (* due time to answer *)
  answer : (string, string) result;
}

let now = Unix.gettimeofday

(* one arrival: submit, then fetch the answer — directly when the store
   already had it, through [Client.await] when the job was queued *)
let ask conn sub =
  let s0 = now () in
  match C.submit conn sub with
  | Error e -> (now () -. s0, 0., Error ("transport: " ^ e))
  | Ok resp ->
    let s1 = now () in
    let answer =
      match (J.member "ok" resp, int_member "id" resp, str_member "status" resp) with
      | Some (J.Bool true), Some id, Some "done" -> (
        match C.request conn (P.Result id) with
        | Error e -> Error ("transport: " ^ e)
        | Ok r -> (
          match J.member "result" r with
          | Some result -> Ok (J.to_string result)
          | None -> Error ("no result: " ^ J.to_string r)))
      | Some (J.Bool true), Some id, _ -> (
        match C.await conn ~id ~timeout:60. () with
        | Ok ("done", Some result) -> Ok (J.to_string result)
        | Ok (status, _) -> Error ("job ended " ^ status)
        | Error e -> Error ("await: " ^ e))
      | _ -> Error ("rejected: " ^ J.to_string resp)
    in
    (s1 -. s0, now () -. s1, answer)

let queue_depth tbl = int_of_float (sample tbl "topoguard_queue_depth")

type drive = {
  arrivals : arrival list;  (* by k *)
  depths : int list;  (* queue depth, sampled every half second *)
  wall : float;  (* first due time to last answer *)
}

let drive ~endpoint ~rate ~seconds ~pick =
  let total = max 1 (int_of_float (Float.round (rate *. seconds))) in
  let clients = max 1 (min 2 (Domain.recommended_domain_count ())) in
  let next = Atomic.make 0 and next_sample = Atomic.make 0 in
  let t0 = now () +. 0.05 in
  let client () =
    let conn = ref (C.connect_endpoint endpoint) in
    let rec loop acc depths =
      let k = Atomic.fetch_and_add next 1 in
      if k >= total then (acc, depths)
      else begin
        let due = t0 +. (float_of_int k /. rate) in
        let wait = due -. now () in
        if wait > 0. then Unix.sleepf wait;
        let sent = now () in
        let submit_s, await_s, answer =
          match !conn with
          | Error e -> (0., 0., Error ("connect: " ^ e))
          | Ok c -> ask c (pick k)
        in
        let e2e = now () -. due in
        (* a failed arrival may have left the connection mid-exchange:
           start the next one on a fresh connection *)
        (match (answer, !conn) with
        | Error _, Ok c ->
          C.close c;
          conn := C.connect_endpoint endpoint
        | _ -> ());
        let depths =
          let s = Atomic.get next_sample in
          match !conn with
          | Ok c when now () >= t0 +. (0.5 *. float_of_int s)
                      && Atomic.compare_and_set next_sample s (s + 1) -> (
            match scrape c with
            | tbl -> queue_depth tbl :: depths
            | exception Failure _ -> depths)
          | _ -> depths
        in
        loop ({ k; lag = sent -. due; submit_s; await_s; e2e; answer } :: acc) depths
      end
    in
    let r = loop [] [] in
    (match !conn with Ok c -> C.close c | Error _ -> ());
    r
  in
  let others = List.init (clients - 1) (fun _ -> Domain.spawn client) in
  let mine = client () in
  let parts = mine :: List.map Domain.join others in
  let arrivals =
    List.sort (fun a b -> compare a.k b.k) (List.concat_map fst parts)
  in
  let last_done =
    List.fold_left (fun acc a -> Float.max acc (t0 +. (float_of_int a.k /. rate) +. a.e2e)) t0 arrivals
  in
  { arrivals; depths = List.concat_map snd parts; wall = last_done -. t0 }

(* ---- scenarios ---- *)

let submit grid increase =
  { P.default_submit with P.grid; increase = Some increase; single_line = true }

(* six scenarios over the 5-, 14- and 30-bus grids, targets from the
   seed, on the shift-factor backend: each solves in milliseconds (the
   exact LP takes 0.16 s at 14 buses and seconds at 30), so pre-warming
   keeps set-up short *)
let warm_set ~seed =
  let rng = Random.State.make [| seed; 1 |] in
  let pct () = Printf.sprintf "%d.%02d" (1 + Random.State.int rng 9) (Random.State.int rng 100) in
  List.concat_map
    (fun (file, n) ->
      let grid = read_file file in
      List.init n (fun _ -> { (submit grid (pct ())) with P.backend = "factors" }))
    [ ("data/5.grid", 2); ("data/14.grid", 3); ("data/30.grid", 1) ]

(* arrival k: a 5-bus job with the protocol's defaults, its target
   embedding k so that every arrival is a distinct job.  The job solves
   in a millisecond or two, well inside the first poll of
   [Client.await]: a job that finishes near a poll time (a 14-bus exact
   LP takes about as long as the fourth) is answered one whole poll
   round earlier or later from run to run. *)
let cold_pick ~seed =
  let g5 = read_file "data/5.grid" in
  fun k ->
    let r = Hashtbl.hash (seed, k) in
    submit g5 (Printf.sprintf "%d.%05d%02d" (1 + (r mod 9)) k (r / 9 mod 100))

(* the service's base state for the protocol's default base, "case-study":
   the calibrated dispatch on the 5-bus grid, the OPF optimum elsewhere *)
let case_study_base grid =
  if grid.Grid.Network.n_buses = 5 then
    Attack.Base_state.of_dispatch grid ~gen:(Grid.Test_systems.case_study_base_dispatch ())
  else Attack.Base_state.of_opf grid

(* the answer the service must give, computed in this process with the
   service's settings for the submissions this benchmark sends (topology
   attacks, single-line enumeration, the case-study base state) *)
let reference (s : P.submit) =
  match Grid.Spec.parse s.P.grid with
  | Error e -> "parse error " ^ e
  | Ok spec -> (
    let spec =
      match s.P.increase with
      | Some p -> { spec with Grid.Spec.min_increase_pct = Q.of_decimal_string p }
      | None -> spec
    in
    match case_study_base spec.Grid.Spec.grid with
    | Error e -> "base state error " ^ e
    | Ok base ->
      let config =
        {
          I.default_config with
          I.backend =
            (match s.P.backend with
            | "factors" -> I.Fast_factors
            | "smt" -> I.Smt_bounded
            | _ -> I.Lp_exact);
          max_candidates = s.P.max_candidates;
          use_closed_form = s.P.single_line;
          max_topology_changes = (if s.P.single_line then Some 1 else None);
          jobs = 1;
        }
      in
      verdict_of_outcome (I.analyze ~config ~scenario:spec ~base ()))

let verdict_of_answer s =
  match J.of_string s with Ok j -> verdict_of_json j | Error e -> "malformed " ^ e

(* submit every warm scenario, then wait for each answer (polling every
   millisecond, so set-up times the solves rather than the client's
   backoff schedule); both shards solve at once *)
let prewarm f warm =
  let fail e = failwith ("pre-warm: " ^ e) in
  match C.connect_endpoint f.endpoint with
  | Error e -> fail e
  | Ok c ->
    Fun.protect
      ~finally:(fun () -> C.close c)
      (fun () ->
        let ids =
          List.map
            (fun sub ->
              match C.submit c sub with
              | Ok resp -> (
                match int_member "id" resp with
                | Some id -> id
                | None -> fail (J.to_string resp))
              | Error e -> fail e)
            warm
        in
        List.map
          (fun id ->
            match C.await c ~id ~poll_interval:0.001 ~max_interval:0.001 ~timeout:60. () with
            | Ok ("done", Some result) -> J.to_string result
            | Ok (status, _) -> fail ("job ended " ^ status)
            | Error e -> fail e)
          ids)

(* ---- the workloads ---- *)

type kind = Warm | Cold

let backoff_seconds () =
  match List.assoc_opt "client.await.backoff.seconds" (Obs.snapshot ()).Obs.histograms with
  | Some h -> h.Obs.h_sum
  | None -> 0.

type window = {
  d : drive;
  before : (string, float) Hashtbl.t;
  after : (string, float) Hashtbl.t;
  backoff : float;
}

let window f ~rate ~seconds ~pick =
  Gc.full_major ();
  let before = scrape_endpoint f.endpoint in
  let b0 = backoff_seconds () in
  let d = drive ~endpoint:f.endpoint ~rate ~seconds ~pick in
  let backoff = backoff_seconds () -. b0 in
  { d; before; after = scrape_endpoint f.endpoint; backoff }

let answered d = List.filter (fun a -> Result.is_ok a.answer) d.arrivals

(* Correctness: every arrival answered; warm answers byte-identical to
   their pre-warm answers, which match the in-process reference; every
   tenth cold answer matches the reference.  The verdicts are the
   pre-warm answers (warm) or every answer in arrival order (cold). *)
let judge kind ~pick ~prewarmed ~force_mismatch arrivals =
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let forced k v = if force_mismatch && k = 0 then "forced mismatch" else v in
  List.iter
    (fun a -> match a.answer with Error e -> problem "arrival %d: %s" a.k e | Ok _ -> ())
    arrivals;
  let verdicts =
    match kind with
    | Warm ->
      let prewarmed = Array.of_list prewarmed in
      Array.iteri
        (fun i answer ->
          let v = forced i (verdict_of_answer answer) in
          let r = reference (pick i) in
          if v <> r then problem "pre-warm %d: %S but the reference says %S" i v r)
        prewarmed;
      List.iter
        (fun a ->
          match a.answer with
          | Ok s when s <> prewarmed.(a.k mod Array.length prewarmed) ->
            problem "arrival %d: warm answer differs from its pre-warm answer" a.k
          | _ -> ())
        arrivals;
      Array.to_list (Array.mapi (fun i s -> forced i (verdict_of_answer s)) prewarmed)
    | Cold ->
      List.filter_map
        (fun a ->
          match a.answer with
          | Error _ -> None
          | Ok s ->
            let v = forced a.k (verdict_of_answer s) in
            (if a.k mod 10 = 0 then
               let r = reference (pick a.k) in
               if v <> r then problem "arrival %d: %S but the reference says %S" a.k v r);
            Some v)
        arrivals
  in
  (verdicts, List.rev !problems)

let read_trace path =
  match read_json path with Ok j -> j | Error e -> failwith ("trace: " ^ e)

(* solver layers from the fleet's trace files, stitched with this
   process's own (which holds the window span) and cut to the window *)
let fleet_spans f ~bench_trace =
  let coord = Option.get f.trace in
  let files = coord :: List.map (fun i -> Printf.sprintf "%s.shard-%d" coord i) [ 0; 1 ] in
  match Obs.Trace.merge (bench_trace :: List.map read_trace files) with
  | Error e -> failwith ("trace merge: " ^ e)
  | Ok merged -> (
    let spans = Spans.of_trace merged in
    match List.find_opt (fun s -> s.Spans.name = "bench.window") spans with
    | None -> failwith "trace: no bench.window span"
    | Some w ->
      List.filter
        (fun s -> s.Spans.start >= w.Spans.start && s.Spans.start <= w.Spans.start +. w.Spans.dur)
        spans)

let run kind ~cli ~dir ~seed ~seconds ~trace ~setups ~force_mismatch =
  let warm = warm_set ~seed in
  let rate, pick =
    match kind with
    | Warm ->
      let a = Array.of_list warm in
      (200., fun k -> a.(k mod Array.length a))
    | Cold -> (4., cold_pick ~seed)
  in
  let start ~traced =
    let f = spawn ~cli ~dir ~journal:(kind = Cold) ~traced in
    match kind with
    | Warm -> (f, (try prewarm f warm with e -> stop f; raise e))
    | Cold -> (f, [])
  in
  let setup_times, (fleet, prewarmed) =
    repeat_timed setups ~discard:(fun (f, _) -> stop f) (fun () -> start ~traced:false)
  in
  let measure f ~seconds = Fun.protect ~finally:(fun () -> stop f) (fun () -> window f ~rate ~seconds ~pick) in
  if not trace then begin
    let w = measure fleet ~seconds in
    let verdicts, problems = judge kind ~pick ~prewarmed ~force_mismatch w.d.arrivals in
    let ok = answered w.d in
    let e2e = List.map (fun a -> a.e2e) ok in
    let n = List.length ok and offered = List.length w.d.arrivals in
    (* the median over consecutive windows of at least 100 arrivals (one
       second at 200/s) of each window's percentile, so a few slow
       seconds of a shared machine do not move the run's figure *)
    let windowed q =
      let size = max 100 (int_of_float rate) in
      let last = max 0 ((offered / size) - 1) in
      let windows = Hashtbl.create 32 in
      List.iter
        (fun a ->
          let key = min (a.k / size) last in
          Hashtbl.replace windows key (a.e2e :: Option.value ~default:[] (Hashtbl.find_opt windows key)))
        ok;
      median (Hashtbl.fold (fun _ l acc -> percentile l q :: acc) windows [])
    in
    {
      metrics =
        [
          metric ~count:setups "setup_s" "s" (median setup_times);
          metric ~count:n "answers_per_s" "1/s" (ratio (float_of_int n) w.d.wall);
          metric ~count:n "latency_p50_s" "s" (windowed 0.5);
          metric ~count:n "latency_p90_s" "s" (windowed 0.9);
        ];
      extra =
        [
          metric ~count:n "latency_p99_s" "s" (percentile e2e 0.99);
          metric ~count:offered "gen_lag_p99_s" "s"
            (percentile (List.map (fun a -> a.lag) w.d.arrivals) 0.99);
          metric ~count:(List.length w.d.depths) "serve.queue.depth_max" "count"
            (float_of_int (List.fold_left max 0 w.d.depths));
        ];
      attempted = offered + List.length prewarmed;
      problems;
      verdicts;
    }
  end
  else begin
    let half = seconds /. 2. in
    let untraced = measure fleet ~seconds:half in
    let traced_fleet, _ = start ~traced:true in
    Obs.Trace.set_enabled true;
    Obs.Trace.clear ();
    let w =
      Fun.protect
        ~finally:(fun () -> Obs.Trace.set_enabled false)
        (fun () -> Obs.Trace.with_span "bench.window" (fun () -> measure traced_fleet ~seconds:half))
    in
    let spans = fleet_spans traced_fleet ~bench_trace:(Obs.Trace.export_json ()) in
    (* the traced fleet's answers must equal the first fleet's pre-warm
       answers too *)
    let arrivals = untraced.d.arrivals @ w.d.arrivals in
    let _, problems = judge kind ~pick ~prewarmed ~force_mismatch arrivals in
    let ok = answered w.d in
    let total f = sum (List.map f ok) in
    let client =
      {
        Budget.lag = total (fun a -> a.lag);
        submit = total (fun a -> a.submit_s);
        await = total (fun a -> a.await_s);
        backoff = w.backoff;
      }
    in
    let e2e = total (fun a -> a.e2e) in
    (* on the grid the cold jobs solve; a warm window verifies nothing, so
       the replay's shares read 0 there *)
    let replay =
      match Grid.Spec.parse (read_file "data/5.grid") with
      | Error e -> failwith e
      | Ok scenario -> (
        match case_study_base scenario.Grid.Spec.grid with
        | Ok base -> Budget.replay ~scenario ~base
        | Error e -> failwith e)
    in
    let budget =
      {
        Budget.answers = List.length ok;
        e2e;
        unattributed = e2e -. client.Budget.lag -. client.Budget.submit -. client.Budget.await;
        overhead =
          Budget.overhead
            ~untraced:(List.map (fun a -> a.e2e) (answered untraced.d))
            ~traced:(List.map (fun a -> a.e2e) ok);
        solver = Spans.solver spans;
        replay;
        client;
        source = source ~before:w.before ~after:w.after;
        depth_max = List.fold_left max 0 w.d.depths;
      }
    in
    {
      metrics = Budget.metrics budget;
      extra = [];
      attempted = List.length arrivals + (2 * List.length prewarmed);
      problems;
      verdicts = [];
    }
  end
