(* Pieces shared by the recorder and the comparer: percentiles over raw
   samples, the metric record every run prints, verdict lines, and file
   and JSON accessors. *)

module J = Obs.Json
module Q = Numeric.Rat
module I = Topoguard.Impact

(* linear interpolation between the two nearest ranks of the sorted
   samples; [nan] on an empty set *)
let percentile samples q =
  let a = Array.of_list samples in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n = 0 then Float.nan
  else
    let pos = q *. float_of_int (n - 1) in
    let lo = int_of_float pos in
    let hi = min (n - 1) (lo + 1) in
    a.(lo) +. ((pos -. float_of_int lo) *. (a.(hi) -. a.(lo)))

let median samples = percentile samples 0.5
let sum = List.fold_left ( +. ) 0.
let ratio a b = if b = 0. then 0. else a /. b

(* Run [f] [n] (>= 1) times, each from a freshly collected heap, handing
   every result but the last to [discard]; the durations and the last
   result.  Without the collection, garbage from earlier set-ups made
   some of them a quarter slower. *)
let repeat_timed n ~discard f =
  let rec go i times =
    Gc.full_major ();
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let times = (Unix.gettimeofday () -. t0) :: times in
    if i + 1 >= n then (times, r)
    else begin
      discard r;
      go (i + 1) times
    end
  in
  go 0 []

type metric = {
  name : string;
  unit_ : string;
  value : float;
  count : int option;  (* samples behind a percentile or a mean *)
}

let metric ?count name unit_ value = { name; unit_; value; count }

let print_metric m =
  Printf.printf "  %-42s %14.6g %-8s%s\n" m.name m.value m.unit_
    (match m.count with Some n -> Printf.sprintf " n=%d" n | None -> "")

let json_of_metrics ?(counts = false) ms =
  J.Obj
    (List.map
       (fun m ->
         ( m.name,
           J.Obj
             ([ ("value", J.Float m.value); ("unit", J.String m.unit_) ]
             @
             match m.count with
             | Some n when counts -> [ ("count", J.Int n) ]
             | _ -> []) ))
       ms)

(* what one workload run hands back to the recorder *)
type run = {
  metrics : metric list;  (* the contract's: end-to-end, or per-layer when traced *)
  extra : metric list;  (* printed and kept in the report only *)
  attempted : int;
  problems : string list;  (* one per wrong or failed answer *)
  verdicts : string list;  (* one verdict line per answer, checked against goldens *)
}

(* ---- verdicts ----

   One line per answer, identical whether the answer came from an
   in-process [Impact.analyze] call or from the service's result JSON:
   line and bus numbers 1-based and costs at the service's six decimal
   digits, so the two sides can be compared and digested alike. *)

let ints l = String.concat "," (List.map string_of_int l)

let verdict_of_outcome = function
  | I.Attack_found s ->
    let v = s.I.vector in
    Printf.sprintf "attack_found candidates=%d poisoned=%s excluded=%s included=%s"
      s.I.candidates
      (match s.I.poisoned_cost with
      | Some c -> Q.to_decimal_string ~digits:6 c
      | None -> "none")
      (ints (List.map succ v.Attack.Vector.excluded))
      (ints (List.map succ v.Attack.Vector.included))
  | I.No_attack { candidates } -> Printf.sprintf "no_attack candidates=%d" candidates
  | I.Base_infeasible e -> "base_infeasible " ^ e

let str_member name j =
  match J.member name j with Some (J.String s) -> Some s | _ -> None

let int_member name j =
  match J.member name j with Some (J.Int n) -> Some n | _ -> None

let verdict_of_json result =
  let cands = Option.value ~default:(-1) (int_member "candidates" result) in
  let int_list name =
    match J.member name result with
    | Some (J.List l) ->
      ints (List.filter_map (function J.Int n -> Some n | _ -> None) l)
    | _ -> "?"
  in
  match str_member "outcome" result with
  | Some "attack_found" ->
    Printf.sprintf "attack_found candidates=%d poisoned=%s excluded=%s included=%s"
      cands
      (Option.value ~default:"none" (str_member "poisoned_cost" result))
      (int_list "excluded") (int_list "included")
  | Some "no_attack" -> Printf.sprintf "no_attack candidates=%d" cands
  | Some "base_infeasible" ->
    "base_infeasible " ^ Option.value ~default:"" (str_member "error" result)
  | _ -> "malformed " ^ J.to_string result

(* a run's digest: over its verdict lines in answer order *)
let digest_of_list vs = String.sub (Digest.to_hex (Digest.string (String.concat "\n" vs))) 0 12

(* ---- files ---- *)

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let read_json path =
  match J.of_string (read_file path) with
  | Ok j -> Ok j
  | Error e -> Error (path ^ ": " ^ e)
  | exception Sys_error e -> Error e

let float_of_json = function
  | J.Float f -> Some f
  | J.Int n -> Some (float_of_int n)
  | _ -> None
