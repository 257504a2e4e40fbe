(* Process-wide metrics registry.  Counter/histogram handles are
   records kept by the caller; the registry only maps names to handles so
   snapshots can enumerate them.

   Domain-safety: counters are Atomic.t ints (incr is one lock-free
   fetch-and-add, so totals are exact — not approximately merged — when
   several domains of a Pool instrument the same counter); histograms are
   arrays of Atomic.t ints with the same discipline; registry lookups
   are guarded by a global mutex (they happen once per handle at module
   initialisation, never on a hot path). *)

let enabled_flag = Atomic.make false
let set_enabled b = Atomic.set enabled_flag b
let enabled () = Atomic.get enabled_flag

(* one lock for all registries: make/snapshot/reset are cold paths *)
let registry_mutex = Mutex.create ()

module Clock = struct
  let clock = ref Sys.time
  let set f = clock := f
  let now () = !clock ()
end

(* Domain-local cooperative-interruption poll point.  Long uninterruptible
   kernels (simplex pivot loops, sparse LU elimination) call [poll] so a
   cancellation installed by the orchestration layer (Impact's interrupt
   hook, the serve worker's cancel flag) can reach inside a single solve
   instead of waiting for it to finish.  Domain-local on purpose: a probe
   installed on one worker domain never fires a solve running on another. *)
module Probe = struct
  let key = Domain.DLS.new_key (fun () : (unit -> unit) option -> None)
  let poll () = match Domain.DLS.get key with None -> () | Some f -> f ()

  let with_ f body =
    let prev = Domain.DLS.get key in
    Domain.DLS.set key (Some f);
    Fun.protect ~finally:(fun () -> Domain.DLS.set key prev) body
end

module Counter = struct
  type t = { name : string; v : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 64

  let make name =
    Mutex.protect registry_mutex (fun () ->
        match Hashtbl.find_opt registry name with
        | Some c -> c
        | None ->
          let c = { name; v = Atomic.make 0 } in
          Hashtbl.add registry name c;
          c)

  let incr c = Atomic.incr c.v
  let add c n = ignore (Atomic.fetch_and_add c.v n)
  let get c = Atomic.get c.v
  let name c = c.name
end

type hist_entry = {
  h_count : int;
  h_sum : float;
  h_min : float option;
  h_max : float option;
  h_buckets : (float * int) list;
}

module Histogram = struct
  (* log2 buckets: bounds.(i) = 2^(i-20), i = 0..62 (9.5e-7 .. 4.4e12);
     bucket 63 is the +Inf overflow.  An observation lands in the first
     bucket whose upper bound is >= the value; values <= 2^-20 (including
     zero and negatives) land in bucket 0. *)
  let n_buckets = 64
  let bounds = Array.init (n_buckets - 1) (fun i -> 2. ** float_of_int (i - 20))

  type t = {
    name : string;
    buckets : int Atomic.t array;
    count : int Atomic.t;
    sum_micro : int Atomic.t;
    min_micro : int Atomic.t;  (* max_int while empty *)
    max_micro : int Atomic.t;  (* min_int while empty *)
  }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 64

  let make name =
    Mutex.protect registry_mutex (fun () ->
        match Hashtbl.find_opt registry name with
        | Some h -> h
        | None ->
          let h =
            {
              name;
              buckets = Array.init n_buckets (fun _ -> Atomic.make 0);
              count = Atomic.make 0;
              sum_micro = Atomic.make 0;
              min_micro = Atomic.make max_int;
              max_micro = Atomic.make min_int;
            }
          in
          Hashtbl.add registry name h;
          h)

  (* first bound >= v, by binary search over the static float array: no
     allocation, ~6 comparisons.  NaN compares false with everything and
     falls into the overflow bucket. *)
  let bucket_index v =
    if not (v <= bounds.(n_buckets - 2)) then n_buckets - 1
    else begin
      let lo = ref 0 and hi = ref (n_buckets - 2) in
      while !lo < !hi do
        let mid = (!lo + !hi) / 2 in
        if v <= bounds.(mid) then hi := mid else lo := mid + 1
      done;
      !lo
    end

  (* sums, min and max are integer micro-units so they share the atomic
     int machinery with counters: exact under parallelism, ~9.2e12 of
     headroom in the total, 1e-6 resolution per observation *)
  let micro v =
    if v >= 9e12 then max_int / 2
    else if v <= -9e12 then -(max_int / 2)
    else int_of_float (Float.round (v *. 1e6))

  let rec cas_min a x =
    let cur = Atomic.get a in
    if x < cur && not (Atomic.compare_and_set a cur x) then cas_min a x

  let rec cas_max a x =
    let cur = Atomic.get a in
    if x > cur && not (Atomic.compare_and_set a cur x) then cas_max a x

  let observe h v =
    ignore (Atomic.fetch_and_add h.buckets.(bucket_index v) 1);
    ignore (Atomic.fetch_and_add h.count 1);
    let u = micro v in
    ignore (Atomic.fetch_and_add h.sum_micro u);
    cas_min h.min_micro u;
    cas_max h.max_micro u

  let observe_int h n = observe h (float_of_int n)

  let time h f =
    if not (Atomic.get enabled_flag) then f ()
    else begin
      let t0 = Clock.now () in
      match f () with
      | v ->
        observe h (Clock.now () -. t0);
        v
      | exception e ->
        observe h (Clock.now () -. t0);
        raise e
    end

  let count h = Atomic.get h.count
  let sum h = float_of_int (Atomic.get h.sum_micro) /. 1e6
  let name h = h.name

  let read h =
    let count = Atomic.get h.count in
    let bkts = ref [] in
    for i = n_buckets - 1 downto 0 do
      let n = Atomic.get h.buckets.(i) in
      if n > 0 then begin
        let le = if i = n_buckets - 1 then Float.infinity else bounds.(i) in
        bkts := (le, n) :: !bkts
      end
    done;
    {
      h_count = count;
      h_sum = float_of_int (Atomic.get h.sum_micro) /. 1e6;
      h_min =
        (if count = 0 then None
         else Some (float_of_int (Atomic.get h.min_micro) /. 1e6));
      h_max =
        (if count = 0 then None
         else Some (float_of_int (Atomic.get h.max_micro) /. 1e6));
      h_buckets = !bkts;
    }
end

let quantile (h : hist_entry) q =
  if h.h_count <= 0 then None
  else begin
    let q = Float.max 0.0 (Float.min 1.0 q) in
    let rank = Float.max 1.0 (Float.of_int h.h_count *. q |> Float.ceil) in
    let minv = Option.value h.h_min ~default:0.0 in
    let maxv = Option.value h.h_max ~default:0.0 in
    let clamp v = Float.max minv (Float.min maxv v) in
    let rec go cum = function
      | [] -> h.h_max
      | (le, n) :: rest ->
        let cum' = cum + n in
        if float_of_int cum' < rank then go cum' rest
        else if le = Histogram.bounds.(0) then
          (* bucket 0 holds everything down to the minimum (zeros,
             negatives) and is narrower than the 1e-6 resolution of
             min/max: report its lower bound, the minimum itself *)
          Some (clamp minv)
        else if Float.is_finite le then begin
          (* interpolate inside the log2 bucket (lower bound = le/2) *)
          let lower = Float.min le (Float.max minv (le /. 2.0)) in
          let frac = (rank -. float_of_int cum) /. float_of_int n in
          Some (clamp (lower +. ((le -. lower) *. frac)))
        end
        else Some maxv
    in
    go 0 h.h_buckets
  end

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape_to buf s =
    Buffer.add_char buf '"';
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.add_char buf '"'

  let to_string t =
    let buf = Buffer.create 256 in
    let rec go = function
      | Null -> Buffer.add_string buf "null"
      | Bool b -> Buffer.add_string buf (if b then "true" else "false")
      | Int n -> Buffer.add_string buf (string_of_int n)
      | Float f -> (
        (* JSON has no NaN/Infinity; [%.17g] would happily print them and
           corrupt the document, so non-finite floats become null *)
        match classify_float f with
        | FP_nan | FP_infinite -> Buffer.add_string buf "null"
        | FP_zero | FP_subnormal | FP_normal ->
          if Float.is_integer f && Float.abs f < 1e15 then
            Buffer.add_string buf (Printf.sprintf "%.1f" f)
          else Buffer.add_string buf (Printf.sprintf "%.17g" f))
      | String s -> escape_to buf s
      | List xs ->
        Buffer.add_char buf '[';
        List.iteri
          (fun i x ->
            if i > 0 then Buffer.add_char buf ',';
            go x)
          xs;
        Buffer.add_char buf ']'
      | Obj fields ->
        Buffer.add_char buf '{';
        List.iteri
          (fun i (k, v) ->
            if i > 0 then Buffer.add_char buf ',';
            escape_to buf k;
            Buffer.add_char buf ':';
            go v)
          fields;
        Buffer.add_char buf '}'
    in
    go t;
    Buffer.contents buf

  exception Parse_error of string

  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at offset %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let advance () = incr pos in
    let skip_ws () =
      while
        !pos < n
        && match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false
      do
        advance ()
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then advance ()
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail (Printf.sprintf "expected %s" word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec loop () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> advance ()
        | '\\' ->
          advance ();
          if !pos >= n then fail "unterminated escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "short \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            (match int_of_string_opt ("0x" ^ hex) with
            | Some code when code < 128 -> Buffer.add_char buf (Char.chr code)
            | Some _ -> Buffer.add_char buf '?'
            | None -> fail "bad \\u escape");
            pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape %C" c));
          advance ();
          loop ()
        | c ->
          Buffer.add_char buf c;
          advance ();
          loop ()
      in
      loop ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      let is_num_char c =
        match c with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      in
      while !pos < n && is_num_char s.[!pos] do
        advance ()
      done;
      let tok = String.sub s start (!pos - start) in
      let is_float =
        String.exists (fun c -> c = '.' || c = 'e' || c = 'E') tok
      in
      if is_float then
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail (Printf.sprintf "bad number %S" tok)
      else
        match int_of_string_opt tok with
        | Some i -> Int i
        | None -> fail (Printf.sprintf "bad number %S" tok)
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | None -> fail "unexpected end of input"
      | Some '"' -> String (parse_string ())
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some '[' ->
        advance ();
        skip_ws ();
        if peek () = Some ']' then begin
          advance ();
          List []
        end
        else begin
          let items = ref [ parse_value () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            items := parse_value () :: !items;
            skip_ws ()
          done;
          expect ']';
          List (List.rev !items)
        end
      | Some '{' ->
        advance ();
        skip_ws ();
        if peek () = Some '}' then begin
          advance ();
          Obj []
        end
        else begin
          let field () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            (k, v)
          in
          let fields = ref [ field () ] in
          skip_ws ();
          while peek () = Some ',' do
            advance ();
            fields := field () :: !fields;
            skip_ws ()
          done;
          expect '}';
          Obj (List.rev !fields)
        end
      | Some _ -> parse_number ()
    in
    match
      let v = parse_value () in
      skip_ws ();
      if !pos <> n then fail "trailing garbage";
      v
    with
    | v -> Ok v
    | exception Parse_error msg -> Error msg

  let member key = function
    | Obj fields -> List.assoc_opt key fields
    | _ -> None
end

type snapshot = {
  counters : (string * int) list;
  histograms : (string * hist_entry) list;
}

let by_name (a, _) (b, _) = compare (a : string) b

let snapshot () =
  (* the registry lock freezes the set of handles; each entry's value is
     then read atomically *)
  let counters, histograms =
    Mutex.protect registry_mutex (fun () ->
        ( Hashtbl.fold
            (fun name c acc -> (name, Counter.get c) :: acc)
            Counter.registry [],
          Hashtbl.fold
            (fun name h acc -> (name, Histogram.read h) :: acc)
            Histogram.registry [] ))
  in
  {
    counters = List.sort by_name counters;
    histograms = List.sort by_name histograms;
  }

let regressed_marker = "obs.diff.regressed"

let diff ~before ~after =
  (* a counter that shrank between the snapshots means the registry was
     reset mid-window; a negative delta is never a real rate, so clamp to
     zero and say so through the [obs.diff.regressed] marker *)
  let regressed = ref 0 in
  let counters =
    List.filter_map
      (fun (name, v) ->
        let v0 =
          match List.assoc_opt name before.counters with
          | Some v0 -> v0
          | None -> 0
        in
        if v - v0 < 0 then begin
          incr regressed;
          None
        end
        else if v - v0 = 0 then None
        else Some (name, v - v0))
      after.counters
  in
  let histograms =
    List.filter_map
      (fun (name, (h : hist_entry)) ->
        let h0 =
          match List.assoc_opt name before.histograms with
          | Some h0 -> h0
          | None ->
            { h_count = 0; h_sum = 0.0; h_min = None; h_max = None;
              h_buckets = [] }
        in
        let d_count = h.h_count - h0.h_count in
        let d_buckets =
          List.filter_map
            (fun (le, n) ->
              let n0 =
                match
                  List.find_opt (fun (le0, _) -> le0 = le) h0.h_buckets
                with
                | Some (_, n0) -> n0
                | None -> 0
              in
              if n - n0 <= 0 then None else Some (le, n - n0))
            h.h_buckets
        in
        if d_count < 0 then begin
          incr regressed;
          None
        end
        else if d_count = 0 then None
        else
          (* min/max are not differencable; report the window's [after]
             values *)
          Some
            ( name,
              {
                h_count = d_count;
                h_sum = h.h_sum -. h0.h_sum;
                h_min = h.h_min;
                h_max = h.h_max;
                h_buckets = d_buckets;
              } ))
      after.histograms
  in
  let counters =
    if !regressed = 0 then counters
    else List.sort by_name ((regressed_marker, !regressed) :: counters)
  in
  { counters; histograms }

let reset () =
  Mutex.protect registry_mutex (fun () ->
      Hashtbl.iter (fun _ (c : Counter.t) -> Atomic.set c.Counter.v 0)
        Counter.registry;
      Hashtbl.iter
        (fun _ (h : Histogram.t) ->
          Array.iter (fun b -> Atomic.set b 0) h.Histogram.buckets;
          Atomic.set h.Histogram.count 0;
          Atomic.set h.Histogram.sum_micro 0;
          Atomic.set h.Histogram.min_micro max_int;
          Atomic.set h.Histogram.max_micro min_int)
        Histogram.registry)

let to_table { counters; histograms } =
  let buf = Buffer.create 256 in
  let live_counters = List.filter (fun (_, v) -> v <> 0) counters in
  let live_hists = List.filter (fun (_, h) -> h.h_count <> 0) histograms in
  let width =
    List.fold_left
      (fun w (name, _) -> max w (String.length name))
      24
      (live_counters @ List.map (fun (n, _) -> (n, 0)) live_hists)
  in
  if live_counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (name, v) ->
        Buffer.add_string buf (Printf.sprintf "  %-*s %d\n" width name v))
      live_counters
  end;
  if live_hists <> [] then begin
    Buffer.add_string buf "histograms:\n";
    List.iter
      (fun (name, h) ->
        let q p =
          match quantile h p with
          | Some v -> Printf.sprintf "%g" v
          | None -> "-"
        in
        Buffer.add_string buf
          (Printf.sprintf
             "  %-*s n=%d sum=%g min=%g p50=%s p90=%s p99=%s max=%g\n" width
             name h.h_count h.h_sum
             (Option.value h.h_min ~default:0.0)
             (q 0.5) (q 0.9) (q 0.99)
             (Option.value h.h_max ~default:0.0)))
      live_hists
  end;
  Buffer.contents buf

let json_of_hist_entry (h : hist_entry) =
  Json.Obj
    [
      ("count", Json.Int h.h_count);
      ("sum", Json.Float h.h_sum);
      ("min", match h.h_min with Some v -> Json.Float v | None -> Json.Null);
      ("max", match h.h_max with Some v -> Json.Float v | None -> Json.Null);
      ( "buckets",
        Json.List
          (List.map
             (fun (le, n) ->
               Json.Obj
                 [
                   ( "le",
                     if Float.is_finite le then Json.Float le
                     else Json.String "+Inf" );
                   ("count", Json.Int n);
                 ])
             h.h_buckets) );
    ]

let json_of_snapshot { counters; histograms } =
  Json.Obj
    [
      ("counters", Json.Obj (List.map (fun (n, v) -> (n, Json.Int v)) counters));
      ( "histograms",
        Json.Obj (List.map (fun (n, h) -> (n, json_of_hist_entry h)) histograms)
      );
    ]

let write_json_file path json =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc (Json.to_string json);
      output_char oc '\n')

(* ---- Prometheus text exposition ---- *)

module Prometheus = struct
  let sanitize name =
    let b = Bytes.of_string name in
    Bytes.iteri
      (fun i c ->
        let ok =
          (c >= 'a' && c <= 'z')
          || (c >= 'A' && c <= 'Z')
          || (c >= '0' && c <= '9')
          || c = '_'
        in
        if not ok then Bytes.set b i '_')
      b;
    let s = Bytes.to_string b in
    if s = "" then "_"
    else match s.[0] with '0' .. '9' -> "_" ^ s | _ -> s

  let value f =
    if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
    else Printf.sprintf "%.17g" f

  let counter buf ~name v =
    Printf.bprintf buf "# TYPE %s counter\n%s %s\n" name name (value v)

  let gauge buf ~name v =
    Printf.bprintf buf "# TYPE %s gauge\n%s %s\n" name name (value v)

  let histogram buf ~name (h : hist_entry) =
    Printf.bprintf buf "# TYPE %s histogram\n" name;
    let cum = ref 0 in
    let saw_inf = ref false in
    List.iter
      (fun (le, n) ->
        cum := !cum + n;
        if Float.is_finite le then
          Printf.bprintf buf "%s_bucket{le=\"%s\"} %d\n" name (value le) !cum
        else begin
          saw_inf := true;
          Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" name !cum
        end)
      h.h_buckets;
    if not !saw_inf then
      Printf.bprintf buf "%s_bucket{le=\"+Inf\"} %d\n" name h.h_count;
    Printf.bprintf buf "%s_sum %s\n" name (value h.h_sum);
    Printf.bprintf buf "%s_count %d\n" name h.h_count

  (* inject one label into every sample line of an exposition text: a
     fleet coordinator aggregates per-shard scrapes under shard="..."
     labels.  Comment lines pass through; the sample value is whatever
     follows the last space, so label values containing spaces survive. *)
  let add_label ~name ~value:lv text =
    let quote s =
      let b = Buffer.create (String.length s) in
      String.iter
        (fun c ->
          match c with
          | '"' -> Buffer.add_string b "\\\""
          | '\\' -> Buffer.add_string b "\\\\"
          | '\n' -> Buffer.add_string b "\\n"
          | c -> Buffer.add_char b c)
        s;
      Buffer.contents b
    in
    let label = Printf.sprintf "%s=\"%s\"" (sanitize name) (quote lv) in
    let relabel line =
      if line = "" || line.[0] = '#' then line
      else
        match String.rindex_opt line ' ' with
        | None -> line
        | Some sp -> (
          let metric = String.sub line 0 sp in
          let v = String.sub line sp (String.length line - sp) in
          match String.index_opt metric '{' with
          | Some brace ->
            String.sub metric 0 (brace + 1)
            ^ label ^ ","
            ^ String.sub metric (brace + 1) (String.length metric - brace - 1)
            ^ v
          | None -> metric ^ "{" ^ label ^ "}" ^ v)
    in
    String.concat "\n" (List.map relabel (String.split_on_char '\n' text))
end

let to_prometheus ?(namespace = "topoguard") snap =
  let buf = Buffer.create 1024 in
  let full n = Prometheus.sanitize (namespace ^ "_" ^ n) in
  List.iter
    (fun (n, v) ->
      Prometheus.counter buf ~name:(full n ^ "_total") (float_of_int v))
    snap.counters;
  List.iter
    (fun (n, h) -> Prometheus.histogram buf ~name:(full n) h)
    snap.histograms;
  Buffer.contents buf

(* ---- structured trace spans (Chrome trace_event export) ---- *)

module Trace = struct
  let trace_flag = Atomic.make false
  let capacity = Atomic.make 16384
  let dropped = Atomic.make 0

  (* the exported pid: 1 until a binary installs its real process id.
     Real pids are what let a cross-process merge keep each process's
     spans on distinct rows (and its B/E nesting intact). *)
  let pid = Atomic.make 1
  let set_pid p = Atomic.set pid p
  let span_counter = Atomic.make 0

  let new_span_id () =
    Printf.sprintf "s%d-%d" (Atomic.get pid)
      (Atomic.fetch_and_add span_counter 1)

  let new_trace_id () =
    Printf.sprintf "t%d-%d" (Atomic.get pid)
      (Atomic.fetch_and_add span_counter 1)

  (* the current trace context of this domain: (trace id, parent span
     id), attached to every event recorded while installed.  Purely
     domain-local — propagation across domains or processes is the
     caller's job (the serve/cluster layers carry it in the protocol's
     ["trace"] field). *)
  let context_key : (string * string) option ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref None)

  let set_context ctx = Domain.DLS.get context_key := ctx
  let get_context () = !(Domain.DLS.get context_key)

  let with_context ctx f =
    let cell = Domain.DLS.get context_key in
    let saved = !cell in
    cell := ctx;
    Fun.protect ~finally:(fun () -> cell := saved) f

  type ev = {
    mutable ph : char;  (* 'B' | 'E' | 'X' | 'i' *)
    mutable ev_name : string;
    mutable ts : float;  (* raw Clock seconds *)
    mutable dur : float;  (* seconds, 'X' only *)
    mutable args : (string * string) list;
    mutable trace_id : string;  (* "" = no trace context *)
    mutable parent_id : string;  (* "" = no parent span *)
  }

  (* one preallocated ring per domain: recording mutates an existing slot
     in place (the only per-event allocation is the caller's args list),
     so hot loops can emit events without contending on any lock.  When a
     ring wraps, the oldest events are overwritten and counted in
     [dropped]. *)
  type ring = {
    tid : int;
    evs : ev array;
    mutable next : int;
    mutable total : int;
  }

  let rings : ring list ref = ref []

  let make_ring () =
    let cap = max 16 (Atomic.get capacity) in
    let r =
      {
        tid = (Domain.self () :> int);
        evs =
          Array.init cap (fun _ ->
              {
                ph = ' ';
                ev_name = "";
                ts = 0.0;
                dur = 0.0;
                args = [];
                trace_id = "";
                parent_id = "";
              });
        next = 0;
        total = 0;
      }
    in
    Mutex.protect registry_mutex (fun () -> rings := r :: !rings);
    r

  let dls_key = Domain.DLS.new_key make_ring

  let set_enabled b = Atomic.set trace_flag b
  let enabled () = Atomic.get trace_flag
  let set_capacity n = Atomic.set capacity (max 16 n)
  let dropped_events () = Atomic.get dropped

  let record ph name ts dur args =
    let r = Domain.DLS.get dls_key in
    let cap = Array.length r.evs in
    if r.total >= cap then Atomic.incr dropped;
    let e = r.evs.(r.next) in
    let tid, pid =
      match get_context () with
      | Some (t, p) -> (t, p)
      | None -> ("", "")
    in
    e.ph <- ph;
    e.ev_name <- name;
    e.ts <- ts;
    e.dur <- dur;
    e.args <- args;
    e.trace_id <- tid;
    e.parent_id <- pid;
    r.next <- (r.next + 1) mod cap;
    r.total <- r.total + 1

  let begin_ ?(args = []) name =
    if Atomic.get trace_flag then record 'B' name (Clock.now ()) 0.0 args

  let end_ name =
    if Atomic.get trace_flag then record 'E' name (Clock.now ()) 0.0 []

  let with_span ?args name f =
    if not (Atomic.get trace_flag) then f ()
    else begin
      begin_ ?args name;
      match f () with
      | v ->
        end_ name;
        v
      | exception e ->
        end_ name;
        raise e
    end

  let instant ?(args = []) name =
    if Atomic.get trace_flag then record 'i' name (Clock.now ()) 0.0 args

  let complete ?(args = []) ~ts ~dur name =
    if Atomic.get trace_flag then record 'X' name ts dur args

  let clear () =
    Mutex.protect registry_mutex (fun () ->
        List.iter
          (fun r ->
            r.next <- 0;
            r.total <- 0)
          !rings);
    Atomic.set dropped 0

  (* events of one ring, oldest first, copied out of the mutable slots;
     the trace context folds into the args so everything downstream
     (balance, export, merge) sees one uniform shape *)
  let events_of_ring r =
    let cap = Array.length r.evs in
    let count = min r.total cap in
    let start = if r.total <= cap then 0 else r.next in
    List.init count (fun i ->
        let e = r.evs.((start + i) mod cap) in
        let args =
          e.args
          @ (if e.trace_id = "" then [] else [ ("trace", e.trace_id) ])
          @ if e.parent_id = "" then [] else [ ("parent", e.parent_id) ]
        in
        (e.ph, e.ev_name, e.ts, e.dur, args))

  (* guarantee balanced B/E per tid: orphan E events (their B was
     overwritten by a ring wrap) are dropped, unclosed B events get a
     synthetic E at the latest timestamp seen on that ring *)
  let balance evs =
    let last_ts =
      List.fold_left (fun acc (_, _, ts, _, _) -> Float.max acc ts) 0.0 evs
    in
    let stack = ref [] in
    let out = ref [] in
    List.iter
      (fun ev ->
        let ph, name, ts, _, _ = ev in
        match ph with
        | 'B' ->
          stack := name :: !stack;
          out := ev :: !out
        | 'E' -> (
          match !stack with
          | [] -> ()  (* orphan: opening B was overwritten *)
          | top :: rest ->
            stack := rest;
            out := ('E', top, ts, 0.0, []) :: !out)
        | _ -> out := ev :: !out)
      evs;
    List.iter
      (fun name -> out := ('E', name, last_ts, 0.0, []) :: !out)
      !stack;
    List.rev !out

  let export_json () =
    let rs = Mutex.protect registry_mutex (fun () -> !rings) in
    let per_ring =
      List.map (fun r -> (r.tid, balance (events_of_ring r))) rs
    in
    let t0 =
      List.fold_left
        (fun acc (_, evs) ->
          List.fold_left
            (fun acc (_, _, ts, _, _) -> Float.min acc ts)
            acc evs)
        Float.infinity per_ring
    in
    let t0 = if Float.is_finite t0 then t0 else 0.0 in
    let this_pid = Atomic.get pid in
    let ev_json tid (ph, name, ts, dur, args) =
      Json.Obj
        ([
           ("name", Json.String name);
           ("cat", Json.String "topoguard");
           ("ph", Json.String (String.make 1 ph));
           ("ts", Json.Float ((ts -. t0) *. 1e6));
           ("pid", Json.Int this_pid);
           ("tid", Json.Int tid);
         ]
        @ (if ph = 'X' then [ ("dur", Json.Float (dur *. 1e6)) ] else [])
        @
        match args with
        | [] -> []
        | _ ->
          [
            ( "args",
              Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) args) );
          ])
    in
    let events =
      List.concat_map
        (fun (tid, evs) -> List.map (ev_json tid) evs)
        per_ring
    in
    Json.Obj
      [
        ("traceEvents", Json.List events);
        ("displayTimeUnit", Json.String "ms");
        (* absolute epoch microseconds of this file's ts = 0, so a merge
           can put files from several processes on one timeline as long
           as they shared a wall clock (they do: servers install
           [Unix.gettimeofday] before enabling) *)
        ("clockBaseUs", Json.Float (t0 *. 1e6));
      ]

  let write_file path = write_json_file path (export_json ())

  (* ---- cross-process stitching ---- *)

  (* Merge several per-process trace files (parsed JSON) into one
     Chrome trace.  Each event's relative ts is re-based through its
     file's [clockBaseUs] onto the global earliest instant, pids and
     tids pass through untouched (distinct processes exported distinct
     real pids, so B/E nesting per (pid, tid) row is preserved), and a
     request's spans correlate across processes by their ["trace"]
     arg. *)
  let merge traces =
    let num = function
      | Some (Json.Float f) -> Some f
      | Some (Json.Int i) -> Some (float_of_int i)
      | _ -> None
    in
    let parse i t =
      match Json.member "traceEvents" t with
      | Some (Json.List evs) ->
        let base =
          Option.value ~default:0.0 (num (Json.member "clockBaseUs" t))
        in
        Ok (base, evs)
      | _ -> Error (Printf.sprintf "input %d: no traceEvents list" i)
    in
    let rec parse_all i acc = function
      | [] -> Ok (List.rev acc)
      | t :: rest -> (
        match parse i t with
        | Ok p -> parse_all (i + 1) (p :: acc) rest
        | Error _ as e -> e)
    in
    match parse_all 0 [] traces with
    | Error _ as e -> e
    | Ok files ->
      let t0 =
        List.fold_left
          (fun acc (base, evs) ->
            List.fold_left
              (fun acc ev ->
                match num (Json.member "ts" ev) with
                | Some ts -> Float.min acc (base +. ts)
                | None -> acc)
              acc evs)
          Float.infinity files
      in
      let t0 = if Float.is_finite t0 then t0 else 0.0 in
      let rebase base ev =
        match ev with
        | Json.Obj fields ->
          Json.Obj
            (List.map
               (fun (k, v) ->
                 match (k, num (Some v)) with
                 | "ts", Some ts -> (k, Json.Float (base +. ts -. t0))
                 | _ -> (k, v))
               fields)
        | ev -> ev
      in
      let events =
        List.concat_map
          (fun (base, evs) -> List.map (rebase base) evs)
          files
      in
      Ok
        (Json.Obj
           [
             ("traceEvents", Json.List events);
             ("displayTimeUnit", Json.String "ms");
           ])
end
