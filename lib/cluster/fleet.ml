(* Fleet lifecycle: fork/exec N shard servers (the same binary's
   [serve] subcommand, each listening on loopback TCP), wait until
   every shard accepts, run the {!Coordinator} in this process, and
   reap the children after the drain.

   Shard names are ["shard-0"] ... ["shard-N-1"]: the ring hashes
   names, so a shard restarted under its old name (and port) keeps
   exactly its old arcs — which is what makes the journal warm-start
   land the right keys. *)

type config = {
  exe : string;  (* the topoguard binary, e.g. Sys.executable_name *)
  listen : Serve.Transport.endpoint;
  shards : int;
  host : string;
  base_port : int;  (* shard i listens on tcp:host:(base_port + i) *)
  jobs_per_shard : int;
  cache_mb : int;
  journal_dir : string option;  (* per-shard journals live here *)
  vnodes : int;
  verbose : bool;
  access_log : string option;  (* coordinator log; shard i appends .shard-i *)
  trace : string option;  (* coordinator trace; shard i appends .shard-i *)
}

let default_config ~exe ~listen =
  {
    exe;
    listen;
    shards = 3;
    host = "127.0.0.1";
    base_port = 7601;
    jobs_per_shard = 1;
    cache_mb = 64;
    journal_dir = None;
    vnodes = Ring.default_vnodes;
    verbose = false;
    access_log = None;
    trace = None;
  }

let shard_name i = Printf.sprintf "shard-%d" i

let shard_endpoint cfg i = Serve.Transport.Tcp (cfg.host, cfg.base_port + i)

let journal_path cfg i =
  Option.map
    (fun dir -> Filename.concat dir (shard_name i ^ ".journal"))
    cfg.journal_dir

(* per-shard derivative of a coordinator-level file: --trace t.json
   gives the coordinator t.json and shard i t.json.shard-i, which is
   exactly the file set tools/trace_merge.ml stitches back together *)
let shard_file path i = path ^ "." ^ shard_name i
let trace_path cfg i = Option.map (fun p -> shard_file p i) cfg.trace
let access_log_path cfg i = Option.map (fun p -> shard_file p i) cfg.access_log

let shard_argv cfg i =
  let ep = Serve.Transport.endpoint_to_string (shard_endpoint cfg i) in
  let opt flag = function Some v -> [ flag; v ] | None -> [] in
  [ cfg.exe; "serve"; "--listen"; ep ]
  @ [ "--jobs"; string_of_int cfg.jobs_per_shard ]
  @ [ "--cache-mb"; string_of_int cfg.cache_mb ]
  @ opt "--journal" (journal_path cfg i)
  @ opt "--trace" (trace_path cfg i)
  @ opt "--access-log" (access_log_path cfg i)
  @ if cfg.verbose then [ "--verbose" ] else []

let spawn_shard cfg i =
  let argv = Array.of_list (shard_argv cfg i) in
  let devnull = Unix.openfile "/dev/null" [ Unix.O_RDONLY ] 0 in
  let pid =
    Unix.create_process cfg.exe argv devnull Unix.stdout Unix.stderr
  in
  Unix.close devnull;
  pid

(* a shard is ready when its port accepts; give a cold process a few
   seconds of connect-retry before declaring the fleet dead *)
let wait_ready ?(timeout = 15.) endpoint =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    match Serve.Transport.dial endpoint with
    | Ok fd ->
      Unix.close fd;
      Ok ()
    | Error e ->
      if Unix.gettimeofday () > deadline then
        Error
          (Printf.sprintf "shard at %s never came up: %s"
             (Serve.Transport.endpoint_to_string endpoint)
             e)
      else begin
        Unix.sleepf 0.05;
        loop ()
      end
  in
  loop ()

let reap ?(timeout = 30.) pids =
  let deadline = Unix.gettimeofday () +. timeout in
  List.iter
    (fun pid ->
      let rec wait_soft () =
        match Unix.waitpid [ Unix.WNOHANG ] pid with
        | 0, _ ->
          if Unix.gettimeofday () > deadline then begin
            (* a shard that ignores its drain gets a signal *)
            (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
            ignore (Unix.waitpid [] pid)
          end
          else begin
            Unix.sleepf 0.05;
            wait_soft ()
          end
        | _ -> ()
        | exception Unix.Unix_error (Unix.ECHILD, _, _) -> ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> wait_soft ()
      in
      wait_soft ())
    pids

let run cfg =
  if cfg.shards < 1 then Error "a fleet needs at least one shard"
  else begin
    let idx = List.init cfg.shards (fun i -> i) in
    let pids = List.map (fun i -> spawn_shard cfg i) idx in
    let ready =
      List.fold_left
        (fun acc i ->
          match acc with
          | Error _ as e -> e
          | Ok () -> wait_ready (shard_endpoint cfg i))
        (Ok ()) idx
    in
    match ready with
    | Error e ->
      (* startup failed: kill whatever did come up *)
      List.iter
        (fun pid ->
          try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ())
        pids;
      reap ~timeout:5. pids;
      Error e
    | Ok () ->
      let shards = List.map (fun i -> (shard_name i, shard_endpoint cfg i)) idx in
      let coord =
        {
          (Coordinator.default_config ~listen:cfg.listen ~shards) with
          vnodes = cfg.vnodes;
          verbose = cfg.verbose;
          access_log = cfg.access_log;
          trace = cfg.trace;
        }
      in
      let result = Coordinator.run coord in
      reap pids;
      result
  end
