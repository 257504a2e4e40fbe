module J = Obs.Json

type t = { fd : Unix.file_descr; reader : Protocol.Frame.reader }

let of_fd fd = { fd; reader = Protocol.Frame.reader fd }

let connect_endpoint endpoint =
  match Transport.dial endpoint with
  | Error e -> Error e
  | Ok fd -> Ok (of_fd fd)

let connect path = connect_endpoint (Transport.Unix_sock path)

let close t = try Unix.close t.fd with Unix.Unix_error _ -> ()

let rpc t json =
  match Protocol.Frame.write_line t.fd (J.to_string json) with
  | exception Unix.Unix_error (e, _, _) ->
    Error (Printf.sprintf "send: %s" (Unix.error_message e))
  | () -> (
    match Protocol.Frame.read_line t.reader with
    | `Eof -> Error "server closed the connection"
    | `Oversized -> Error "response line exceeds the frame cap"
    | exception Unix.Unix_error (e, _, _) ->
      Error (Printf.sprintf "receive: %s" (Unix.error_message e))
    | `Line line -> (
      match J.of_string line with
      | Ok j -> Ok j
      | Error e -> Error ("malformed response: " ^ e)))

let request ?trace t req =
  rpc t (Protocol.with_trace trace (Protocol.json_of_request req))

let submit ?trace t s = request ?trace t (Protocol.Submit s)
let submit_batch ?trace t items = request ?trace t (Protocol.Submit_batch items)

(* a uniform ±25% jitter on a retry_after sleep, so a fleet of clients
   rejected together does not come back together *)
let backoff_state = lazy (Random.State.make_self_init ())

let jitter v =
  let st = Lazy.force backoff_state in
  v *. (0.75 +. Random.State.float st 0.5)

(* every second a client spends voluntarily asleep on a queue-full retry
   lands here, so a load report can split client-side waiting from
   server latency; [await] never sleeps *)
let h_backoff = Obs.Histogram.make "client.await.backoff.seconds"

let backoff_sleep seconds =
  Obs.Histogram.observe h_backoff seconds;
  Unix.sleepf seconds

let retry_after_of resp =
  match J.member "retry_after" resp with
  | Some (J.Float s) when s > 0. -> Some s
  | Some (J.Int s) when s > 0 -> Some (float_of_int s)
  | _ -> None

(* one blocking [wait] per round, carrying what is left of the timeout:
   the server answers when the job ends (with the result, when done), so
   a second round only follows a server-side timeout *)
let await t ~id ?poll_interval:_ ?max_interval:_ ?(timeout = 600.) () =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    let remaining = deadline -. Unix.gettimeofday () in
    if remaining <= 0. then Error "await: timed out"
    else
      match request t (Protocol.Wait (id, Some remaining)) with
      | Error e -> Error e
      | Ok resp -> (
        match J.member "status" resp with
        | Some (J.String ("queued" | "running")) -> loop ()
        | Some (J.String "done") -> Ok ("done", J.member "result" resp)
        | Some (J.String terminal) -> Ok (terminal, None)
        | _ -> (
          match J.member "error" resp with
          | Some (J.String e) -> Error e
          | _ -> Error "await: malformed wait response"))
  in
  loop ()

(* a queue-full rejection carries ["retry_after"]: honour it (sleeping
   what the server asked, jittered) instead of hammering the socket *)
let submit_retry ?trace t s ?(timeout = 60.) () =
  let deadline = Unix.gettimeofday () +. timeout in
  let rec loop () =
    match submit ?trace t s with
    | Error _ as e -> e
    | Ok resp -> (
      match (J.member "ok" resp, retry_after_of resp) with
      | Some (J.Bool false), Some after ->
        if Unix.gettimeofday () +. after > deadline then
          Error "submit: queue full past the deadline"
        else begin
          backoff_sleep (jitter after);
          loop ()
        end
      | _ -> Ok resp)
  in
  loop ()

let sync t ~ranges =
  match request t (Protocol.Sync ranges) with
  | Error _ as e -> e
  | Ok resp -> (
    match (J.member "ok" resp, J.member "entries" resp) with
    | Some (J.Bool true), Some (J.List entries) ->
      let rec parse acc = function
        | [] -> Ok (List.rev acc)
        | J.List [ J.String k; J.String v ] :: rest ->
          parse ((k, v) :: acc) rest
        | _ -> Error "sync: malformed entries list"
      in
      parse [] entries
    | Some (J.Bool false), _ -> (
      match J.member "error" resp with
      | Some (J.String e) -> Error ("sync: " ^ e)
      | _ -> Error "sync: rejected")
    | _ -> Error "sync: malformed response")

let offline_lookup ~journal ~spec ~submit =
  match Store.Journal.scan journal with
  | Error e -> Error e
  | Ok recovery -> (
    let key = Protocol.job_key spec submit in
    (* last write wins, as in the cache replay *)
    let hit =
      List.fold_left
        (fun acc (k, v) -> if k = key then Some v else acc)
        None recovery.Store.Journal.records
    in
    match hit with
    | None -> Ok None
    | Some v -> (
      match J.of_string v with
      | Ok j -> Ok (Some j)
      | Error e -> Error ("corrupt cached result: " ^ e)))
