(* A channel from the coordinator to one shard server: a name, an
   endpoint, and a lazily (re)dialed client connection.

   Failure discipline: protocol-level errors (ok = false responses) are
   the shard speaking and prove it alive; only transport failures count
   against it.  A transport failure on an existing connection gets one
   fresh dial (the shard may simply have restarted); if that also
   fails, the shard is marked dead and stays dead until [revive] — the
   coordinator decides when (if ever) to re-admit it to the ring.

   Side connections carry one parked [wait] each, so the main
   connection never waits on a job.  Their reads are non-blocking and
   driven by the coordinator's select loop; an idle one is kept for the
   next wait. *)

type side = {
  fd : Unix.file_descr;
  split : Serve.Protocol.Frame.splitter;
  chunk : Bytes.t;
}

type t = {
  name : string;
  endpoint : Serve.Transport.endpoint;
  mutable conn : Serve.Client.t option;
  mutable alive : bool;
  mutable idle : side list;
}

(* idle side connections kept per shard; a burst of waits beyond this
   closes the surplus as they finish *)
let max_idle = 16

let make ~name endpoint = { name; endpoint; conn = None; alive = true; idle = [] }
let name t = t.name
let endpoint t = t.endpoint
let alive t = t.alive

let close_side s = try Unix.close s.fd with Unix.Unix_error _ -> ()

let drop_conn t =
  (match t.conn with
  | Some c ->
    Serve.Client.close c;
    t.conn <- None
  | None -> ());
  List.iter close_side t.idle;
  t.idle <- []

let close t = drop_conn t

let mark_dead t =
  drop_conn t;
  t.alive <- false

let revive t = t.alive <- true

let connection t =
  match t.conn with
  | Some c -> Ok c
  | None -> (
    match Serve.Client.connect_endpoint t.endpoint with
    | Ok c ->
      t.conn <- Some c;
      Ok c
    | Error e -> Error e)

let rpc t json =
  let call () = Result.bind (connection t) (fun c -> Serve.Client.rpc c json) in
  let had_conn = t.conn <> None in
  let dead e =
    mark_dead t;
    Error e
  in
  if not t.alive then Error (t.name ^ ": shard is dead")
  else
    match call () with
    | Ok _ as ok -> ok
    | Error _ when had_conn -> (
      (* stale connection (shard restarted?): one fresh dial *)
      drop_conn t;
      match call () with Ok _ as ok -> ok | Error e -> dead e)
    | Error e -> dead e

let request ?trace t req =
  rpc t (Serve.Protocol.with_trace trace (Serve.Protocol.json_of_request req))

(* ---- side connections ---- *)

let side_fd s = s.fd

let dial_side t =
  match Serve.Transport.dial t.endpoint with
  | Error e -> Error e
  | Ok fd ->
    Unix.set_nonblock fd;
    Ok { fd; split = Serve.Protocol.Frame.splitter (); chunk = Bytes.create 16384 }

let side_send t json =
  let line = Obs.Json.to_string json in
  let sent s =
    match Serve.Protocol.Frame.write_line s.fd line with
    | () -> true
    | exception Unix.Unix_error _ ->
      close_side s;
      false
  in
  (* an idle connection may be stale: try the next, then dial afresh *)
  let rec go () =
    match t.idle with
    | s :: rest ->
      t.idle <- rest;
      if sent s then Ok s else go ()
    | [] -> (
      match dial_side t with
      | Ok s when sent s -> Ok s
      | Ok _ -> Error (t.name ^ ": send failed")
      | Error e -> Error e)
  in
  if not t.alive then Error (t.name ^ ": shard is dead")
  else match go () with Ok _ as ok -> ok | Error e -> mark_dead t; Error e

let side_read s =
  let line () =
    match Serve.Protocol.Frame.next s.split with
    | `Partial -> `Pending
    | `Oversized -> `Failed "response line exceeds the frame cap"
    | `Line l -> (
      match Obs.Json.of_string l with
      | Ok j -> `Reply j
      | Error e -> `Failed ("malformed response: " ^ e))
  in
  match Unix.read s.fd s.chunk 0 (Bytes.length s.chunk) with
  | 0 -> `Failed "shard closed the connection"
  | n ->
    Serve.Protocol.Frame.feed s.split s.chunk 0 n;
    line ()
  | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _) -> `Pending
  | exception Unix.Unix_error (e, _, _) -> `Failed (Unix.error_message e)

let side_idle t s =
  if t.alive && List.length t.idle < max_idle then t.idle <- s :: t.idle
  else close_side s
