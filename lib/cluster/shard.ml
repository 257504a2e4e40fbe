(* A channel from the coordinator to one shard server: a name, an
   endpoint, and a lazily (re)dialed client connection.

   Failure discipline: protocol-level errors (ok = false responses) are
   the shard speaking and prove it alive; only transport failures count
   against it.  A transport failure on an existing connection gets one
   fresh dial (the shard may simply have restarted); if that also
   fails, the shard is marked dead and stays dead until [revive] — the
   coordinator decides when (if ever) to re-admit it to the ring. *)

type t = {
  name : string;
  endpoint : Serve.Transport.endpoint;
  mutable conn : Serve.Client.t option;
  mutable alive : bool;
}

let make ~name endpoint = { name; endpoint; conn = None; alive = true }
let name t = t.name
let endpoint t = t.endpoint
let alive t = t.alive

let drop_conn t =
  match t.conn with
  | Some c ->
    Serve.Client.close c;
    t.conn <- None
  | None -> ()

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
