(* Layer times from a Chrome trace (one process's export, or several
   stitched with [Obs.Trace.merge]).

   B/E events nest positionally per (pid, tid) row; a span's self time
   is its duration minus the durations of its direct children.
   Complete (X) events — request and queue spans that may overlap — are
   leaves outside the nesting.  Times are seconds. *)

module J = Obs.Json

type span = {
  name : string;
  start : float;
  dur : float;
  self : float;
  ancestors : string list;  (* innermost first *)
}

let str name ev = Option.value ~default:"" (Report.str_member name ev)

let num name ev =
  Option.value ~default:0. (Option.bind (J.member name ev) Report.float_of_json)

let of_trace trace =
  let events =
    match J.member "traceEvents" trace with Some (J.List evs) -> evs | _ -> []
  in
  (* per row: the stack of open spans (name, start, child time) *)
  let stacks = Hashtbl.create 8 in
  let out = ref [] in
  List.iter
    (fun ev ->
      let row = (num "pid" ev, num "tid" ev) in
      let stack = Option.value ~default:[] (Hashtbl.find_opt stacks row) in
      let ts = num "ts" ev /. 1e6 in
      match str "ph" ev with
      | "B" -> Hashtbl.replace stacks row ((str "name" ev, ts, ref 0.) :: stack)
      | "E" -> (
        match stack with
        | [] -> ()
        | (name, start, children) :: rest ->
          let dur = ts -. start in
          (match rest with (_, _, up) :: _ -> up := !up +. dur | [] -> ());
          out :=
            {
              name;
              start;
              dur;
              self = dur -. !children;
              ancestors = List.map (fun (n, _, _) -> n) rest;
            }
            :: !out;
          Hashtbl.replace stacks row rest)
      | "X" ->
        let dur = num "dur" ev /. 1e6 in
        out := { name = str "name" ev; start = ts; dur; self = dur; ancestors = [] } :: !out
      | _ -> ())
    events;
  List.rev !out

let under a s = List.mem a s.ancestors

(* total time in spans called [name], counting a recursion once *)
let total spans name =
  List.fold_left
    (fun acc s -> if s.name = name && not (under name s) then acc +. s.dur else acc)
    0. spans

let self_time spans name =
  List.fold_left (fun acc s -> if s.name = name then acc +. s.self else acc) 0. spans

let count spans name = List.length (List.filter (fun s -> s.name = name) spans)

(* The solver's layers inside one or more [impact.analyze] calls, in
   seconds.  [encode + check + verify + base] partition the analysis
   apart from what no span covers (vector decoding, blocking clauses,
   the closed-form enumeration and the audit); the lp.* times split the
   LP solves of both the base OPF and the verifications. *)
type solver = {
  encode : float;
  check : float;
  base : float;  (* OPF solves outside any verification *)
  verify : float;
  verify_self : float;  (* topology, factorisation, PTDF rows, LP assembly *)
  lp_float : float;
  lp_certify_self : float;  (* presolve, float LP build, certificate check *)
  lp_exact : float;
  verifications : int;
}

let lp_spans = [ "lp.certify.minimize"; "opf.dc_opf.solve"; "lp.exact.minimize"; "lp.float.minimize" ]

let solver spans =
  let outermost_lp s =
    List.mem s.name lp_spans
    && (not (under "impact.verify" s))
    && not (List.exists (fun a -> List.mem a lp_spans) s.ancestors)
  in
  {
    encode = total spans "attack.encode";
    check = total spans "smt.check";
    base = List.fold_left (fun acc s -> if outermost_lp s then acc +. s.dur else acc) 0. spans;
    verify = total spans "impact.verify";
    verify_self =
      List.fold_left
        (fun acc s ->
          if s.name = "impact.verify" || (s.name = "opf.dc_opf.solve" && under "impact.verify" s)
          then acc +. s.self
          else acc)
        0. spans;
    lp_float = total spans "lp.float.minimize";
    lp_certify_self = self_time spans "lp.certify.minimize";
    lp_exact = total spans "lp.exact.minimize";
    verifications = count spans "impact.verify";
  }

let zero_solver =
  {
    encode = 0.;
    check = 0.;
    base = 0.;
    verify = 0.;
    verify_self = 0.;
    lp_float = 0.;
    lp_certify_self = 0.;
    lp_exact = 0.;
    verifications = 0;
  }

let add_solver a b =
  {
    encode = a.encode +. b.encode;
    check = a.check +. b.check;
    base = a.base +. b.base;
    verify = a.verify +. b.verify;
    verify_self = a.verify_self +. b.verify_self;
    lp_float = a.lp_float +. b.lp_float;
    lp_certify_self = a.lp_certify_self +. b.lp_certify_self;
    lp_exact = a.lp_exact +. b.lp_exact;
    verifications = a.verifications + b.verifications;
  }
