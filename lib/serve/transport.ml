type endpoint = Unix_sock of string | Tcp of string * int

let endpoint_of_string s =
  match String.index_opt s ':' with
  | Some i when String.sub s 0 i = "tcp" -> (
    let rest = String.sub s (i + 1) (String.length s - i - 1) in
    match String.rindex_opt rest ':' with
    | None -> Error (Printf.sprintf "tcp address %S needs HOST:PORT" s)
    | Some j -> (
      let host = String.sub rest 0 j in
      let port = String.sub rest (j + 1) (String.length rest - j - 1) in
      match int_of_string_opt port with
      | Some p when p >= 0 && p <= 65535 && host <> "" -> Ok (Tcp (host, p))
      | _ -> Error (Printf.sprintf "bad tcp address %S" s)))
  | Some i when String.sub s 0 i = "unix" ->
    let path = String.sub s (i + 1) (String.length s - i - 1) in
    if path = "" then Error "empty unix socket path" else Ok (Unix_sock path)
  | _ -> if s = "" then Error "empty address" else Ok (Unix_sock s)

let endpoint_to_string = function
  | Unix_sock p -> "unix:" ^ p
  | Tcp (h, p) -> Printf.sprintf "tcp:%s:%d" h p

let resolve host port =
  match Unix.inet_addr_of_string host with
  | addr -> Ok (Unix.ADDR_INET (addr, port))
  | exception Failure _ -> (
    match Unix.gethostbyname host with
    | { Unix.h_addr_list = addrs; _ } when Array.length addrs > 0 ->
      Ok (Unix.ADDR_INET (addrs.(0), port))
    | _ | (exception Not_found) ->
      Error (Printf.sprintf "cannot resolve host %S" host))

(* a leftover socket file from a dead server must not block restart; a
   live server must *)
let probe_unix path =
  if not (Sys.file_exists path) then Ok ()
  else begin
    let probe = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    let live =
      match Unix.connect probe (Unix.ADDR_UNIX path) with
      | () -> true
      | exception Unix.Unix_error _ -> false
    in
    Unix.close probe;
    if live then Error (Printf.sprintf "socket %s: server already running" path)
    else begin
      (try Sys.remove path with Sys_error _ -> ());
      Ok ()
    end
  end

let listen ?(backlog = 16) endpoint =
  match endpoint with
  | Unix_sock path -> (
    match probe_unix path with
    | Error e -> Error e
    | Ok () -> (
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      match
        Unix.bind fd (Unix.ADDR_UNIX path);
        Unix.listen fd backlog
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error (Printf.sprintf "bind %s: %s" path (Unix.error_message e))))
  | Tcp (host, port) -> (
    match resolve host port with
    | Error e -> Error e
    | Ok addr -> (
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      match
        Unix.bind fd addr;
        Unix.listen fd backlog
      with
      | () -> Ok fd
      | exception Unix.Unix_error (e, _, _) ->
        Unix.close fd;
        Error
          (Printf.sprintf "bind tcp:%s:%d: %s" host port (Unix.error_message e))))

let dial endpoint =
  let connect fd addr label =
    match Unix.connect fd addr with
    | () when addr <> Unix.getsockname fd -> Ok fd
    | () ->
      (* a TCP connect to an unlistened loopback port in the ephemeral
         range can pick that very port as its source and connect to
         itself: nothing is listening, whatever it looks like *)
      Unix.close fd;
      Error (Printf.sprintf "connect %s: connected to itself (nothing listening)" label)
    | exception Unix.Unix_error (e, _, _) ->
      Unix.close fd;
      Error (Printf.sprintf "connect %s: %s" label (Unix.error_message e))
  in
  match endpoint with
  | Unix_sock path ->
    connect (Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0) (Unix.ADDR_UNIX path)
      path
  | Tcp (host, port) -> (
    match resolve host port with
    | Error e -> Error e
    | Ok addr ->
      connect (Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0) addr
        (Printf.sprintf "tcp:%s:%d" host port))

let cleanup = function
  | Unix_sock path -> ( try Sys.remove path with Sys_error _ -> ())
  | Tcp _ -> ()
