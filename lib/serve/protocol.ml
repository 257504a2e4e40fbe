module J = Obs.Json

(* wire protocol version: requests and responses both carry ["v"]; a
   request whose version is newer than ours is rejected up front instead
   of being half-understood.  Absent = 1 (the pre-versioned wire). *)
let version = 1

(* ---- transport-agnostic framing ----

   One JSON object per line in both directions, over any stream
   transport (Unix-domain or TCP).  Newlines inside payloads are
   JSON-escaped by construction, so framing is a newline scan — the only
   policy the framing layer adds is a cap on the line length, so one
   malformed (or hostile) peer cannot balloon a server's carry buffer. *)
module Frame = struct
  (* generous: a submit_batch line carries whole grid files for every
     item, and a sync response carries a shard's journal slice *)
  let default_max_line = 64 * 1024 * 1024
  let chunk_size = 65536

  (* Pending bytes live in [data.[start .. len)]; no byte of
     [data.[start .. scanned)] is a newline, so each byte is scanned
     once however many chunks a long line arrives in.  Consumed lines
     only advance [start]; the unconsumed tail moves to the front when
     the next chunk needs the room. *)
  type splitter = {
    max_line : int;
    mutable data : Bytes.t;
    mutable start : int;
    mutable scanned : int;
    mutable len : int;
  }

  let splitter ?(max_line = default_max_line) () =
    { max_line; data = Bytes.create 4096; start = 0; scanned = 0; len = 0 }

  let feed s chunk ofs n =
    if s.len + n > Bytes.length s.data then begin
      let live = s.len - s.start in
      let data =
        if live + n <= Bytes.length s.data then s.data
        else Bytes.create (max (live + n) (2 * Bytes.length s.data))
      in
      Bytes.blit s.data s.start data 0 live;
      s.data <- data;
      s.scanned <- s.scanned - s.start;
      s.start <- 0;
      s.len <- live
    end;
    Bytes.blit chunk ofs s.data s.len n;
    s.len <- s.len + n

  let next s =
    let rec scan i =
      if i >= s.len then None
      else if Bytes.unsafe_get s.data i = '\n' then Some i
      else scan (i + 1)
    in
    match scan s.scanned with
    | Some nl ->
      let line_len = nl - s.start in
      if line_len > s.max_line then `Oversized
      else begin
        let line = Bytes.sub_string s.data s.start line_len in
        if nl + 1 = s.len then begin
          s.start <- 0;
          s.len <- 0;
          (* an idle connection need not keep the room a huge line took *)
          if Bytes.length s.data > 16 * chunk_size then s.data <- Bytes.create 4096
        end
        else s.start <- nl + 1;
        s.scanned <- s.start;
        `Line line
      end
    | None ->
      s.scanned <- s.len;
      if s.len - s.start > s.max_line then `Oversized else `Partial

  type reader = {
    fd : Unix.file_descr;
    split : splitter;
    chunk : Bytes.t;
    mutable eof : bool;
  }

  let reader ?max_line fd =
    { fd; split = splitter ?max_line (); chunk = Bytes.create chunk_size; eof = false }

  (* blocking: read until one full line, EOF, or the cap is exceeded.
     After [`Oversized] the stream is out of sync — callers must close. *)
  let read_line r =
    let rec go () =
      match next r.split with
      | (`Line _ | `Oversized) as v -> v
      | `Partial when r.eof -> `Eof
      | `Partial -> (
        match Unix.read r.fd r.chunk 0 chunk_size with
        | 0 ->
          r.eof <- true;
          `Eof
        | n ->
          feed r.split r.chunk 0 n;
          go ()
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ()
        | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
          r.eof <- true;
          `Eof)
    in
    go ()

  let write_line fd s =
    (* one buffer, so a response never leaves as two TCP segments *)
    let b = Bytes.unsafe_of_string (s ^ "\n") in
    let n = Bytes.length b in
    let rec go ofs =
      if ofs < n then
        match Unix.single_write fd b ofs (n - ofs) with
        | w -> go (ofs + w)
        | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
          ignore (Unix.select [] [ fd ] [] 1.0);
          go ofs
        | exception Unix.Unix_error (Unix.EINTR, _, _) -> go ofs
    in
    go 0
end

type submit = {
  grid : string;
  mode : string;
  base : string;
  increase : string option;
  max_candidates : int;
  single_line : bool;
  backend : string;
  timeout : float;
}

let default_submit =
  {
    grid = "";
    mode = "topo";
    base = "case-study";
    increase = None;
    max_candidates = 200;
    single_line = false;
    backend = "lp";
    timeout = 0.;
  }

type request =
  | Submit of submit
  | Submit_batch of submit list
  | Status of int
  | Result of int
  | Cancel of int
  | Sync of (int * int) list
  | Stats
  | Metrics
  | Shutdown

let submit_fields s =
  [
    ("grid", J.String s.grid);
    ("mode", J.String s.mode);
    ("base", J.String s.base);
  ]
  @ (match s.increase with
    | Some i -> [ ("increase", J.String i) ]
    | None -> [])
  @ [
      ("max_candidates", J.Int s.max_candidates);
      ("single_line", J.Bool s.single_line);
      ("backend", J.String s.backend);
      ("timeout", J.Float s.timeout);
    ]

let with_op op fields = J.Obj (("op", J.String op) :: ("v", J.Int version) :: fields)

let json_of_request = function
  | Submit s -> with_op "submit" (submit_fields s)
  | Submit_batch items ->
    with_op "submit_batch"
      [ ("items", J.List (List.map (fun s -> J.Obj (submit_fields s)) items)) ]
  | Status id -> with_op "status" [ ("id", J.Int id) ]
  | Result id -> with_op "result" [ ("id", J.Int id) ]
  | Cancel id -> with_op "cancel" [ ("id", J.Int id) ]
  | Sync ranges ->
    with_op "sync"
      [
        ( "ranges",
          J.List
            (List.map (fun (lo, hi) -> J.List [ J.Int lo; J.Int hi ]) ranges) );
      ]
  | Stats -> with_op "stats" []
  | Metrics -> with_op "metrics" []
  | Shutdown -> with_op "shutdown" []

let field kind of_json ?default name j =
  match (J.member name j, default) with
  | Some v, _ ->
    Option.to_result (of_json v)
      ~none:(Printf.sprintf "field %S must be %s" name kind)
  | None, Some d -> Ok d
  | None, None -> Error (Printf.sprintf "missing field %S" name)

let str_field = field "a string" (function J.String s -> Some s | _ -> None)
let int_field = field "an integer" (function J.Int n -> Some n | _ -> None)

let ( let* ) = Result.bind

let submit_of_json j =
  let d = default_submit in
  let* grid = str_field "grid" j in
  let* mode = str_field ~default:d.mode "mode" j in
  let* base = str_field ~default:d.base "base" j in
  let increase =
    match J.member "increase" j with Some (J.String s) -> Some s | _ -> None
  in
  let* max_candidates = int_field ~default:d.max_candidates "max_candidates" j in
  let single_line =
    match J.member "single_line" j with Some (J.Bool b) -> b | _ -> false
  in
  let* backend = str_field ~default:d.backend "backend" j in
  let timeout =
    match J.member "timeout" j with
    | Some (J.Float f) -> f
    | Some (J.Int n) -> float_of_int n
    | _ -> d.timeout
  in
  if not (List.mem mode [ "topo"; "state"; "ufdi" ]) then
    Error (Printf.sprintf "unknown mode %S" mode)
  else if not (List.mem base [ "opf"; "proportional"; "case-study" ]) then
    Error (Printf.sprintf "unknown base %S" base)
  else if not (List.mem backend [ "lp"; "smt"; "factors" ]) then
    Error (Printf.sprintf "unknown backend %S" backend)
  else
    Ok
      {
        grid;
        mode;
        base;
        increase;
        max_candidates;
        single_line;
        backend;
        timeout;
      }

let request_of_json j =
  let* () =
    match J.member "v" j with
    | None -> Ok () (* pre-versioned wire = version 1 *)
    | Some (J.Int v) when v >= 1 && v <= version -> Ok ()
    | Some (J.Int v) ->
      Error (Printf.sprintf "unsupported protocol version %d (speaking %d)" v version)
    | Some _ -> Error "field \"v\" must be an integer"
  in
  let* op = str_field "op" j in
  match op with
  | "submit" ->
    let* s = submit_of_json j in
    Ok (Submit s)
  | "submit_batch" -> (
    match J.member "items" j with
    | Some (J.List items) ->
      let rec parse acc = function
        | [] -> Ok (Submit_batch (List.rev acc))
        | item :: rest ->
          let* s = submit_of_json item in
          parse (s :: acc) rest
      in
      parse [] items
    | Some _ -> Error "field \"items\" must be a list"
    | None -> Error "missing field \"items\"")
  | "sync" -> (
    match J.member "ranges" j with
    | None -> Ok (Sync [])
    | Some (J.List ranges) ->
      let rec parse acc = function
        | [] -> Ok (Sync (List.rev acc))
        | J.List [ J.Int lo; J.Int hi ] :: rest when lo >= 0 && hi >= lo ->
          parse ((lo, hi) :: acc) rest
        | _ -> Error "field \"ranges\" must be a list of [lo, hi] pairs"
      in
      parse [] ranges
    | Some _ -> Error "field \"ranges\" must be a list")
  | "status" ->
    let* id = int_field "id" j in
    Ok (Status id)
  | "result" ->
    let* id = int_field "id" j in
    Ok (Result id)
  | "cancel" ->
    let* id = int_field "id" j in
    Ok (Cancel id)
  | "stats" -> Ok Stats
  | "metrics" -> Ok Metrics
  | "shutdown" -> Ok Shutdown
  | op -> Error (Printf.sprintf "unknown op %S" op)

(* clients may tag any request with a "request_id" of their own; the
   server echoes it (or a generated one) in the response *)
let request_id_of_json j =
  match J.member "request_id" j with Some (J.String s) -> Some s | _ -> None

(* ---- trace context ----

   An optional envelope-level ["trace"] object — {"id": trace-id,
   "parent": span-id} — correlates the spans a request produces across
   processes: the client (or the coordinator, for untagged requests)
   mints the trace id, and each hop records its spans under it and
   forwards the pair with its own span as the new parent.  Deliberately
   envelope-only: it never enters {!job_params}/{!job_key}, so a traced
   and an untraced submission of the same scenario share one cache
   entry.  Absent or malformed = no context (v0 clients keep working). *)

let trace_of_json j =
  match J.member "trace" j with
  | Some (J.Obj _ as t) -> (
    match J.member "id" t with
    | Some (J.String id) when id <> "" ->
      let parent =
        match J.member "parent" t with Some (J.String p) -> p | _ -> ""
      in
      Some (id, parent)
    | _ -> None)
  | _ -> None

let with_trace trace j =
  match (trace, j) with
  | None, _ | _, (J.Null | J.Bool _ | J.Int _ | J.Float _ | J.String _ | J.List _) -> j
  | Some (id, parent), J.Obj fields ->
    let t =
      J.Obj
        (("id", J.String id)
        :: (if parent = "" then [] else [ ("parent", J.String parent) ]))
    in
    J.Obj (("trace", t) :: List.remove_assoc "trace" fields)

let job_params s =
  [
    ("mode", s.mode);
    ("base", s.base);
    ("increase", Option.value ~default:"" s.increase);
    ("max_candidates", string_of_int s.max_candidates);
    ("single_line", if s.single_line then "1" else "0");
    ("backend", s.backend);
  ]

(* cached results embed attack-vector line indices numbered by the
   submission's file-row order, so the key folds that ordering in: a
   row-permuted copy of a solved grid misses (and recomputes) instead of
   hitting an entry whose indices name different rows of its file *)
let job_key (spec : Grid.Spec.t) s =
  let params =
    ("row-order", Store.Canonical.ordering spec.Grid.Spec.grid)
    :: job_params s
  in
  "job:" ^ Store.Canonical.key ~params spec
