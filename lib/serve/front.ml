module J = Obs.Json

(* The front door shared by the shard server and the fleet coordinator;
   what differs between the two is passed in (see front.mli). *)

type door = {
  span : string;
  rid_prefix : string;
  mint_trace : bool;
  h_request : Obs.Histogram.t;
}

let door ~name ~rid_prefix ?(mint_trace = false) () =
  let h_request = Obs.Histogram.make (name ^ ".request.seconds") in
  { span = name ^ ".request"; rid_prefix; mint_trace; h_request }

let c_oversized = Obs.Counter.make "serve.requests.oversized"

let ok fields = J.Obj (("ok", J.Bool true) :: fields)

let err ?retry_after msg =
  J.Obj
    (("ok", J.Bool false) :: ("error", J.String msg)
    :: List.map (fun s -> ("retry_after", J.Float s)) (Option.to_list retry_after))

type reply = {
  resp : J.t;
  span_args : (string * string) list;
  log_fields : (string * J.t) list;
}

let reply resp = { resp; span_args = []; log_fields = [] }

(* a connection with a parked request dispatches no further line until
   the parked one is answered, so responses leave in request order *)
type conn = {
  fd : Unix.file_descr;
  split : Protocol.Frame.splitter;
  mutable parked : parked option;
  mutable closed : bool;
}

(* a request whose reply is deferred: what the envelope needs, kept
   until {!answer} writes the reply *)
and parked = {
  conn : conn;
  rid : string;
  verb : string;
  ctx : (string * string) option;
  t0 : float;
  mutable release : unit -> unit;
}

type outcome = Reply of reply | Park of (parked -> unit -> unit)

type t = {
  door : door;
  endpoint : Transport.endpoint;
  max_line : int;
  verbose : bool;
  log_prefix : string;
  trace : string option;
  access_log : out_channel option;
  mutable listener : Unix.file_descr option;
  mutable conns : conn list;
  mutable resume : conn list;  (* answered parked requests, lines pending *)
  mutable watched : (Unix.file_descr * (unit -> unit)) list;
  wake_r : Unix.file_descr;
  wake_w : Unix.file_descr;
  chunk : Bytes.t;
  draining : bool Atomic.t;
  mutable next_rid : int;
  prev_term : Sys.signal_behavior;
}

let log t fmt =
  Printf.ksprintf
    (fun s -> if t.verbose then Printf.eprintf "%s%s\n%!" t.log_prefix s)
    fmt

let now () = Obs.Clock.now ()

let draining t = Atomic.get t.draining
let drain t = Atomic.set t.draining true

let log_access t fields =
  match t.access_log with
  | None -> ()
  | Some oc ->
    output_string oc (J.to_string (J.Obj (("ts", J.Float (now ())) :: fields)));
    output_char oc '\n';
    flush oc

let open_ door ~endpoint ~max_line ~access_log ~trace ~verbose ~log_prefix =
  Obs.Clock.set Unix.gettimeofday;
  Obs.set_enabled true;
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  match Transport.listen endpoint with
  | Error e -> Error e
  | Ok listener -> (
    Unix.set_nonblock listener;
    match Option.map (open_out_gen [ Open_append; Open_creat ] 0o644) access_log with
    | exception Sys_error e ->
      (* an unwritable access log is a startup error, like an unwritable
         journal: better to refuse than to serve blind *)
      (try Unix.close listener with Unix.Unix_error _ -> ());
      Transport.cleanup endpoint;
      Error ("access log: " ^ e)
    | access_log ->
      if trace <> None then begin
        Obs.Trace.set_pid (Unix.getpid ());
        Obs.Trace.set_enabled true
      end;
      let draining = Atomic.make false in
      let prev_term =
        Sys.signal Sys.sigterm (Sys.Signal_handle (fun _ -> Atomic.set draining true))
      in
      (* the self-pipe behind [wake]: a byte on it ends the select *)
      let wake_r, wake_w = Unix.pipe ~cloexec:true () in
      Unix.set_nonblock wake_r;
      Unix.set_nonblock wake_w;
      Ok
        { door; endpoint; max_line; verbose; log_prefix; trace; access_log;
          listener = Some listener; conns = []; resume = []; watched = [];
          wake_r; wake_w; chunk = Bytes.create 65536; draining; next_rid = 1;
          prev_term })

(* ---- the request envelope ---- *)

(* run the handler under the request's trace context; the request id is
   the client's, echoed verbatim, or a generated one: either way the
   access log and the response can be joined on it *)
let begin_request t handle line =
  let rid, verb, ctx, outcome =
    match J.of_string line with
    | Error e -> (None, "invalid", None, Reply (reply (err ("bad json: " ^ e))))
    | Ok j ->
      (* installed for the whole handling, so the request span and
         everything the handler records carry the originating trace id *)
      let ctx =
        match Protocol.trace_of_json j with
        | None when t.door.mint_trace && Obs.Trace.enabled () ->
          Some (Obs.Trace.new_trace_id (), "")
        | ctx -> ctx
      in
      let verb =
        match J.member "op" j with Some (J.String s) -> s | _ -> "invalid"
      in
      ( Protocol.request_id_of_json j,
        verb,
        ctx,
        Obs.Trace.with_context ctx (fun () ->
            handle ctx (Protocol.request_of_json j)) )
  in
  let rid =
    match rid with
    | Some r -> r
    | None ->
      let r = Printf.sprintf "%s%d" t.door.rid_prefix t.next_rid in
      t.next_rid <- t.next_rid + 1;
      r
  in
  (rid, verb, ctx, outcome)

(* the envelope, applied when the reply is written: for a parked
   request the latency, span and access-log line include the parked
   time *)
let finish t ~rid ~verb ~ctx ~t0 r =
  let resp =
    match r.resp with
    | J.Obj fields ->
      J.Obj
        (fields @ [ ("request_id", J.String rid); ("v", J.Int Protocol.version) ])
    | other -> other
  in
  let latency = now () -. t0 in
  Obs.Histogram.observe t.door.h_request latency;
  Obs.Trace.with_context ctx (fun () ->
      Obs.Trace.complete
        ~args:([ ("verb", verb); ("request_id", rid) ] @ r.span_args)
        ~ts:t0 ~dur:latency t.door.span);
  let outcome =
    match J.member "ok" resp with Some (J.Bool true) -> "ok" | _ -> "error"
  in
  log_access t
    ([
       ("kind", J.String "request");
       ("request_id", J.String rid);
       ("verb", J.String verb);
       ("outcome", J.String outcome);
     ]
    @ r.log_fields
    @ [ ("latency_s", J.Float latency) ]);
  resp

(* ---- connections ---- *)

exception Closed

let send conn json =
  try Protocol.Frame.write_line conn.fd (J.to_string json)
  with Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> raise Closed

(* a connection closing with a parked request releases it, so whoever
   filed the request drops it *)
let close_conn t c =
  if not c.closed then begin
    c.closed <- true;
    (try Unix.close c.fd with Unix.Unix_error _ -> ());
    t.conns <- List.filter (fun c' -> c' != c) t.conns;
    match c.parked with
    | Some p ->
      c.parked <- None;
      p.release ()
    | None -> ()
  end

let answer t p r =
  let c = p.conn in
  match c.parked with
  | Some p' when p' == p ->
    c.parked <- None;
    let resp = finish t ~rid:p.rid ~verb:p.verb ~ctx:p.ctx ~t0:p.t0 r in
    (match send c resp with
    | () -> t.resume <- c :: t.resume
    | exception Closed -> close_conn t c)
  | _ -> () (* released, or answered already *)

(* answer every complete line the last read finished, up to the first
   parked request.  A line past the cap — complete or still
   accumulating — is either a protocol error or hostile: reply once and
   close, since the stream cannot be resynchronised *)
let rec dispatch t handle conn =
  if conn.parked = None && not conn.closed then
    match Protocol.Frame.next conn.split with
    | `Partial -> ()
    | `Oversized ->
      Obs.Counter.incr c_oversized;
      let msg = Printf.sprintf "line exceeds %d bytes" t.max_line in
      send conn (J.Obj [ ("ok", J.Bool false); ("error", J.String msg); ("v", J.Int Protocol.version) ]);
      raise Closed
    | `Line line when String.trim line = "" -> dispatch t handle conn
    | `Line line ->
      let t0 = now () in
      (match begin_request t handle line with
      | rid, verb, ctx, Reply r -> send conn (finish t ~rid ~verb ~ctx ~t0 r)
      | rid, verb, ctx, Park file ->
        let p = { conn; rid; verb; ctx; t0; release = ignore } in
        conn.parked <- Some p;
        let release = Obs.Trace.with_context ctx (fun () -> file p) in
        p.release <- release);
      dispatch t handle conn

let dispatch_or_close t handle conn =
  try dispatch t handle conn with Closed -> close_conn t conn

let read_conn t handle conn =
  match Unix.read conn.fd t.chunk 0 (Bytes.length t.chunk) with
  | 0 -> close_conn t conn
  | n ->
    Protocol.Frame.feed conn.split t.chunk 0 n;
    dispatch_or_close t handle conn
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> ()
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    close_conn t conn

let rec accept_all t l =
  match Unix.accept l with
  | fd, _ ->
    Unix.set_nonblock fd;
    t.conns <-
      { fd; split = Protocol.Frame.splitter ~max_line:t.max_line ();
        parked = None; closed = false }
      :: t.conns;
    accept_all t l
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) -> ()
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> accept_all t l

let close_listener t =
  match t.listener with
  | Some l ->
    (try Unix.close l with Unix.Unix_error _ -> ());
    t.listener <- None
  | None -> ()

(* any domain: one byte on the self-pipe; a full pipe already holds a
   pending wake *)
let wake t =
  try ignore (Unix.single_write t.wake_w (Bytes.make 1 '!') 0 1)
  with Unix.Unix_error _ -> ()

let drain_wakes t =
  let buf = Bytes.create 64 in
  let rec go () =
    match Unix.read t.wake_r buf 0 (Bytes.length buf) with
    | 0 -> ()
    | _ -> go ()
    | exception Unix.Unix_error _ -> ()
  in
  go ()

let watch t fd f = t.watched <- (fd, f) :: t.watched
let unwatch t fd = t.watched <- List.filter (fun (fd', _) -> fd' <> fd) t.watched

let serve t ~handle ?(tick = ignore) ?(finished = fun () -> true) () =
  while not (draining t && finished ()) do
    (* entering drain: stop accepting new connections, keep answering
       the open ones until the process says the drain is complete *)
    if draining t && t.listener <> None then begin
      close_listener t;
      log t "draining: listener closed"
    end;
    let watched = t.watched in
    let read_fds =
      (t.wake_r :: Option.to_list t.listener)
      @ List.map (fun c -> c.fd) t.conns
      @ List.map fst watched
    in
    let readable, _, _ =
      match Unix.select read_fds [] [] (if t.resume = [] then 0.05 else 0.) with
      | r -> r
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
    in
    if List.mem t.wake_r readable then drain_wakes t;
    (* before dispatching: a request sees every job the workers have
       finished, not the state of the last tick *)
    tick ();
    (match t.listener with
    | Some l when List.mem l readable -> accept_all t l
    | _ -> ());
    List.iter
      (fun conn ->
        if (not conn.closed) && List.mem conn.fd readable then read_conn t handle conn)
      t.conns;
    (* a callback may unwatch (and close) another watched fd, whose
       number a later dial can reuse: run only those still watched *)
    List.iter
      (fun ((fd, f) as w) ->
        if List.mem fd readable && List.exists (fun w' -> w' == w) t.watched then f ())
      watched;
    tick ();
    let resume = List.rev t.resume in
    t.resume <- [];
    List.iter (dispatch_or_close t handle) resume
  done;
  List.iter (fun c -> try Unix.close c.fd with Unix.Unix_error _ -> ()) t.conns;
  t.conns <- [];
  close_listener t;
  Transport.cleanup t.endpoint

let close t =
  (match t.trace with
  | Some path ->
    Obs.Trace.set_enabled false;
    Obs.Trace.write_file path;
    log t "trace written to %s" path
  | None -> ());
  (match t.access_log with Some oc -> close_out oc | None -> ());
  List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) [ t.wake_r; t.wake_w ];
  Sys.set_signal Sys.sigterm t.prev_term
