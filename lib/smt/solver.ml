module Q = Numeric.Rat
module QD = Numeric.Qdelta

let obs_atom_hits = Obs.Counter.make "smt.solver.atom_cache_hits"
let obs_atom_misses = Obs.Counter.make "smt.solver.atom_cache_misses"
let obs_tseitin = Obs.Counter.make "smt.solver.tseitin_clauses"
let obs_checks = Obs.Counter.make "smt.solver.checks"
let obs_check_seconds = Obs.Histogram.make "smt.solver.check.seconds"
let obs_decisions_hist = Obs.Histogram.make "smt.sat.decisions_per_check"
let obs_pivots_hist = Obs.Histogram.make "smt.simplex.pivots_per_check"

type t = {
  sat : Sat.t;
  simplex : Simplex.t;
  atom_cache : (string, int) Hashtbl.t; (* canonical atom -> sat var *)
  bool_names : (int, string) Hashtbl.t; (* sat var -> user name *)
  real_names : (int, string) Hashtbl.t; (* theory var -> user name *)
  mutable true_var : int; (* sat var forced true *)
  mutable bool_model : bool array;
  mutable real_model : Q.t array;
  mutable nreals : int;
  mutable has_model : bool;
  mutable unsat : bool;
  mutable atom_hits : int;
  mutable atom_misses : int;
  mutable tseitin_clauses : int;
}

let create () =
  let simplex = Simplex.create () in
  let sat = Sat.create ~theory:(Simplex.theory_hooks simplex) () in
  let true_var = Sat.new_var sat in
  Sat.add_clause sat [ Sat.lit_of_var true_var true ];
  {
    sat;
    simplex;
    atom_cache = Hashtbl.create 256;
    bool_names = Hashtbl.create 64;
    real_names = Hashtbl.create 64;
    true_var;
    bool_model = [||];
    real_model = [||];
    nreals = 0;
    has_model = false;
    unsat = false;
    atom_hits = 0;
    atom_misses = 0;
    tseitin_clauses = 0;
  }

let fresh_bool ?name s =
  let v = Sat.new_var s.sat in
  (match name with Some n -> Hashtbl.replace s.bool_names v n | None -> ());
  v

let fresh_real ?name s =
  let v = Simplex.new_var s.simplex in
  (match name with Some n -> Hashtbl.replace s.real_names v n | None -> ());
  s.nreals <- max s.nreals (v + 1);
  v

let n_bools s = Sat.nvars s.sat
let n_reals s = s.nreals
let bool_name s v = Hashtbl.find_opt s.bool_names v
let real_name s v = Hashtbl.find_opt s.real_names v

(* A variable equal to a linear expression: reuse/define the slack for the
   homogeneous part; a pure variable is returned as-is when no constant. *)
let real_expr_var s e =
  let c = Linexp.const_part e in
  if Q.is_zero c then begin
    match Linexp.terms e with
    | [ (v, k) ] when Q.equal k Q.one -> v
    | [] -> invalid_arg "Solver.real_expr_var: constant expression"
    | _ ->
      let v = Simplex.define_slack s.simplex e in
      s.nreals <- max s.nreals (v + 1);
      v
  end
  else begin
    (* define slack for e - c, then shift is not representable as a var:
       introduce w with w = slack + c via another slack over (w' := e) is
       impossible without constants in rows, so instead create a fresh var
       w and asserting w - e = 0 would need the atom machinery.  We instead
       create the slack for the homogeneous part and remember the shift by
       returning a var with permanent equality: w = e  <=>  slack(e - w)=0.
       Simplest sound encoding: fresh var w, assert (w - e <= 0) and
       (e - w <= 0) as permanent bounds on the slack of (w - e). *)
    let w = Simplex.new_var s.simplex in
    s.nreals <- max s.nreals (w + 1);
    let diff = Linexp.sub (Linexp.var w) e in
    (* diff = w - e; homogeneous part is w - terms(e); bound slack to c *)
    let homogeneous = Linexp.sub diff (Linexp.const (Linexp.const_part diff)) in
    let slack = Simplex.define_slack s.simplex homogeneous in
    s.nreals <- max s.nreals (slack + 1);
    let target = QD.of_rat (Q.neg (Linexp.const_part diff)) in
    let ok1 =
      Simplex.assert_permanent s.simplex ~tvar:slack ~side:Simplex.Upper
        ~bound:target
    in
    let ok2 =
      Simplex.assert_permanent s.simplex ~tvar:slack ~side:Simplex.Lower
        ~bound:target
    in
    if not (ok1 && ok2) then s.unsat <- true;
    w
  end

(* canonical form of an atom [e op 0] as a bound on a variable *)
let atom_sat_var s op e =
  let terms = Linexp.terms e in
  let const = Linexp.const_part e in
  let tvar, side, bound =
    match terms with
    | [] -> invalid_arg "atom_sat_var: constant atom"
    | [ (v, c) ] ->
      let b = Q.neg (Q.div const c) in
      if Q.sign c > 0 then
        (* v <= b  (or <) *)
        ( v,
          Simplex.Upper,
          QD.make b (if op = Form.Lt then Q.minus_one else Q.zero) )
      else
        ( v,
          Simplex.Lower,
          QD.make b (if op = Form.Lt then Q.one else Q.zero) )
    | (_, c0) :: _ ->
      let scaled = Linexp.scale (Q.inv c0) (Linexp.sub e (Linexp.const const)) in
      let slack = Simplex.define_slack s.simplex scaled in
      s.nreals <- max s.nreals (slack + 1);
      let b = Q.neg (Q.div const c0) in
      if Q.sign c0 > 0 then
        ( slack,
          Simplex.Upper,
          QD.make b (if op = Form.Lt then Q.minus_one else Q.zero) )
      else
        ( slack,
          Simplex.Lower,
          QD.make b (if op = Form.Lt then Q.one else Q.zero) )
  in
  let side_tag = match side with Simplex.Upper -> "U" | Simplex.Lower -> "L" in
  let key =
    Printf.sprintf "%d|%s|%s|%s" tvar side_tag
      (Q.to_string bound.QD.real)
      (Q.to_string bound.QD.delta)
  in
  match Hashtbl.find_opt s.atom_cache key with
  | Some v ->
    s.atom_hits <- s.atom_hits + 1;
    Obs.Counter.incr obs_atom_hits;
    v
  | None ->
    s.atom_misses <- s.atom_misses + 1;
    Obs.Counter.incr obs_atom_misses;
    let v = Sat.new_var s.sat in
    Simplex.register_atom s.simplex ~sat_var:v ~tvar ~side ~bound;
    Hashtbl.add s.atom_cache key v;
    v

let true_lit s = Sat.lit_of_var s.true_var true

(* Tseitin translation to a literal *)
let rec lit_of s (f : Form.t) : Sat.lit =
  match f with
  | True -> true_lit s
  | False -> Sat.lit_neg (true_lit s)
  | Bvar v -> Sat.lit_of_var v true
  | Atom (op, e) -> Sat.lit_of_var (atom_sat_var s op e) true
  | Not f -> Sat.lit_neg (lit_of s f)
  | And fs ->
    let ls = List.map (lit_of s) fs in
    let x = Sat.new_var s.sat in
    let lx = Sat.lit_of_var x true in
    List.iter (fun l -> Sat.add_clause s.sat [ Sat.lit_neg lx; l ]) ls;
    Sat.add_clause s.sat (lx :: List.map Sat.lit_neg ls);
    let added = List.length ls + 1 in
    s.tseitin_clauses <- s.tseitin_clauses + added;
    Obs.Counter.add obs_tseitin added;
    lx
  | Or fs ->
    let ls = List.map (lit_of s) fs in
    let x = Sat.new_var s.sat in
    let lx = Sat.lit_of_var x true in
    List.iter (fun l -> Sat.add_clause s.sat [ lx; Sat.lit_neg l ]) ls;
    Sat.add_clause s.sat (Sat.lit_neg lx :: ls);
    let added = List.length ls + 1 in
    s.tseitin_clauses <- s.tseitin_clauses + added;
    Obs.Counter.add obs_tseitin added;
    lx

let rec assert_form s (f : Form.t) =
  s.has_model <- false;
  match f with
  | Form.True -> ()
  | Form.False -> s.unsat <- true
  | Form.And fs -> List.iter (assert_form s) fs
  | Form.Or fs -> Sat.add_clause s.sat (List.map (lit_of s) fs)
  | f -> Sat.add_clause s.sat [ lit_of s f ]

(* Sinz sequential-counter encoding of sum(x_i) <= k *)
let assert_at_most s k fs =
  s.has_model <- false;
  let xs = Array.of_list (List.map (lit_of s) fs) in
  let n = Array.length xs in
  if k >= n then ()
  else if k = 0 then
    Array.iter (fun l -> Sat.add_clause s.sat [ Sat.lit_neg l ]) xs
  else begin
    (* r.(i).(j): among x_0..x_i there are at least j+1 true *)
    let r =
      Array.init (n - 1) (fun _ ->
          Array.init k (fun _ -> Sat.lit_of_var (Sat.new_var s.sat) true))
    in
    let neg = Sat.lit_neg in
    Sat.add_clause s.sat [ neg xs.(0); r.(0).(0) ];
    for j = 1 to k - 1 do
      Sat.add_clause s.sat [ neg r.(0).(j) ]
    done;
    for i = 1 to n - 2 do
      Sat.add_clause s.sat [ neg xs.(i); r.(i).(0) ];
      Sat.add_clause s.sat [ neg r.(i - 1).(0); r.(i).(0) ];
      for j = 1 to k - 1 do
        Sat.add_clause s.sat [ neg xs.(i); neg r.(i - 1).(j - 1); r.(i).(j) ];
        Sat.add_clause s.sat [ neg r.(i - 1).(j); r.(i).(j) ]
      done;
      Sat.add_clause s.sat [ neg xs.(i); neg r.(i - 1).(k - 1) ]
    done;
    Sat.add_clause s.sat [ neg xs.(n - 1); neg r.(n - 2).(k - 1) ]
  end

(* the LRA-indicator alternative: sum of 0/1 reals bounded by k *)
let assert_at_most_indicator s k fs =
  let indicators =
    List.map
      (fun f ->
        let y = fresh_real s in
        let ly = Linexp.var y in
        assert_form s
          (Form.and_
             [
               Form.implies f (Form.eq ly (Linexp.const Q.one));
               Form.implies (Form.not_ f) (Form.eq ly (Linexp.const Q.zero));
             ]);
        ly)
      fs
  in
  assert_form s (Form.le (Linexp.sum indicators) (Linexp.const (Q.of_int k)))

let bound_real s ?lo ?hi v =
  s.has_model <- false;
  (match lo with
  | Some b ->
    if
      not
        (Simplex.assert_permanent s.simplex ~tvar:v ~side:Simplex.Lower
           ~bound:(QD.of_rat b))
    then s.unsat <- true
  | None -> ());
  match hi with
  | Some b ->
    if
      not
        (Simplex.assert_permanent s.simplex ~tvar:v ~side:Simplex.Upper
           ~bound:(QD.of_rat b))
    then s.unsat <- true
  | None -> ()

let check_inner s =
  if s.unsat then `Unsat
  else begin
    match Sat.solve s.sat with
    | `Unsat ->
      s.unsat <- true;
      `Unsat
    | `Sat ->
      (* snapshot the model before any further mutation *)
      let nb = Sat.nvars s.sat in
      s.bool_model <- Array.init nb (fun v -> Sat.value s.sat v);
      let all = Simplex.model_all s.simplex in
      s.real_model <-
        Array.init s.nreals (fun v ->
            if v < Array.length all then all.(v) else Q.zero);
      s.has_model <- true;
      `Sat
  end

let check s =
  Obs.Counter.incr obs_checks;
  (* distribution per check (deltas of the per-solver totals), recorded
     once per check — not on the SAT/simplex hot paths themselves *)
  let d0 = Sat.n_decisions s.sat in
  let p0 = Simplex.n_pivots s.simplex in
  let finish r =
    Obs.Histogram.observe_int obs_decisions_hist (Sat.n_decisions s.sat - d0);
    Obs.Histogram.observe_int obs_pivots_hist (Simplex.n_pivots s.simplex - p0);
    r
  in
  Obs.Trace.with_span "smt.check" (fun () ->
      match Obs.Histogram.time obs_check_seconds (fun () -> check_inner s) with
      | r -> finish r
      | exception e ->
        ignore (finish ());
        raise e)

let model_bool s v =
  if not s.has_model then failwith "Solver.model_bool: no model";
  if v < Array.length s.bool_model then s.bool_model.(v) else false

let model_real s v =
  if not s.has_model then failwith "Solver.model_real: no model";
  if v < Array.length s.real_model then s.real_model.(v) else Q.zero

type stats = {
  conflicts : int;
  decisions : int;
  propagations : int;
  restarts : int;
  learned : int;
  pivots : int;
  bound_asserts : int;
  slack_rows : int;
  atom_cache_hits : int;
  atom_cache_misses : int;
  tseitin_clauses : int;
}

let stats s =
  {
    conflicts = Sat.n_conflicts s.sat;
    decisions = Sat.n_decisions s.sat;
    propagations = Sat.n_propagations s.sat;
    restarts = Sat.n_restarts s.sat;
    learned = Sat.n_learned s.sat;
    pivots = Simplex.n_pivots s.simplex;
    bound_asserts = Simplex.n_bound_asserts s.simplex;
    slack_rows = Simplex.n_slack_rows s.simplex;
    atom_cache_hits = s.atom_hits;
    atom_cache_misses = s.atom_misses;
    tseitin_clauses = s.tseitin_clauses;
  }

let stats_fields st =
  [
    ("conflicts", st.conflicts);
    ("decisions", st.decisions);
    ("propagations", st.propagations);
    ("restarts", st.restarts);
    ("learned", st.learned);
    ("pivots", st.pivots);
    ("bound_asserts", st.bound_asserts);
    ("slack_rows", st.slack_rows);
    ("atom_cache_hits", st.atom_cache_hits);
    ("atom_cache_misses", st.atom_cache_misses);
    ("tseitin_clauses", st.tseitin_clauses);
  ]

let json_of_stats st =
  Obs.Json.Obj (List.map (fun (k, v) -> (k, Obs.Json.Int v)) (stats_fields st))

let pp_stats fmt st =
  List.iter
    (fun (k, v) -> Format.fprintf fmt "%-18s %d@." k v)
    (stats_fields st)

(* model restricted to the variables the caller bothered to name: the
   debuggable face of a counterexample *)
let named_model s =
  if not s.has_model then []
  else begin
    let bools =
      Hashtbl.fold
        (fun v name acc ->
          if v < Array.length s.bool_model then
            (name, `Bool s.bool_model.(v)) :: acc
          else acc)
        s.bool_names []
    in
    let reals =
      Hashtbl.fold
        (fun v name acc ->
          if v < Array.length s.real_model then
            (name, `Real s.real_model.(v)) :: acc
          else acc)
        s.real_names []
    in
    List.sort (fun (a, _) (b, _) -> compare a b) (bools @ reals)
  end

let pp_model fmt s =
  if not s.has_model then Format.fprintf fmt "(no model)@."
  else
    List.iter
      (fun (name, v) ->
        match v with
        | `Bool b -> Format.fprintf fmt "%-12s %b@." name b
        | `Real q -> Format.fprintf fmt "%-12s %s@." name (Q.to_string q))
      (named_model s)
