(* The one LP front end: record the problem, presolve it exactly once,
   then run the float simplex and prove its verdict after the fact with
   one exact rational refactorization of the final basis.  On any gap —
   certificate rejected, float stall, float infeasible/unbounded —
   re-solve the presolved rows with the exact simplex, warm-started from
   the float point, so every answer leaving this module is exact. *)

module Q = Numeric.Rat
module B = Numeric.Bigint
module Imap = Map.Make (Int)
module P = Analysis.Presolve
module F = Lp.Float
module E = Lp.Exact

let c_ok = Obs.Counter.make "lp.certify.ok"
let c_fail = Obs.Counter.make "lp.certify.fail"
let c_fallback = Obs.Counter.make "lp.certify.fallback"
let h_seconds = Obs.Histogram.make "lp.certify.seconds"

let c_rows_eliminated = Obs.Counter.make "lp.presolve.rows_eliminated"
let c_bounds_tightened = Obs.Counter.make "lp.presolve.bounds_tightened"
let c_vars_fixed = Obs.Counter.make "lp.presolve.vars_fixed"
let c_presolve_infeasible = Obs.Counter.make "lp.presolve.infeasible"
let h_presolve_rows = Obs.Histogram.make "lp.presolve.rows_eliminated_per_solve"

type t = {
  mutable nvars : int;
  mutable vars : (Q.t option * Q.t option) list; (* reversed *)
  mutable rows : P.row list; (* reversed *)
  warm : (int, Q.t) Hashtbl.t;
}

type outcome =
  | Optimal of { objective : Q.t; values : Q.t array; certified : bool }
  | Infeasible
  | Unbounded

let create () = { nvars = 0; vars = []; rows = []; warm = Hashtbl.create 16 }

let add_var ?lo ?hi t =
  let v = t.nvars in
  t.nvars <- v + 1;
  t.vars <- (lo, hi) :: t.vars;
  v

let set_initial t v x = Hashtbl.replace t.warm v x

(* merge duplicate variables and drop exact zeros, so the rows handed to
   the float solver and to the exact check are the same linear forms *)
let canon terms =
  let merged =
    List.fold_left
      (fun acc (v, c) ->
        Imap.update v
          (function None -> Some c | Some c0 -> Some (Q.add c0 c))
          acc)
      Imap.empty terms
  in
  Imap.fold
    (fun v c acc -> if Q.is_zero c then acc else (v, c) :: acc)
    merged []
  |> List.rev

let add_row t ?lo ?hi terms = t.rows <- { P.terms = canon terms; lo; hi } :: t.rows

(* ---- exact certificate check ---- *)

exception Reject of string

(* The (post-presolve) problem is: minimize c.x subject to the variable
   box and, per row k, [rlo_k <= a_k . x <= rhi_k] — equivalently
   [a_k . x - s_k = 0] with slack s_k boxed by the row bounds.  Variable
   ids: user vars [0..n-1], slack for row k at [n + k] (the layout the
   simplex produces, one {!Lp.S.add_range} slack per row).

   Given the certificate's basic/nonbasic split: pin every nonbasic
   variable to its claimed bound (exactly), solve the square basic system
   for the basic values, and check primal bounds plus the dual sign
   conditions.  All in rationals — if it passes, the point is a true
   optimum of the exact problem, not merely of its float shadow.

   The basic system is never materialized at size m.  A basic slack is a
   cost-free singleton column (-1 in its own row only): its row
   determines the slack value after the structural variables are known,
   and its dual multiplier is pinned to zero.  What remains is a dense
   core with one row per *binding* row (slack nonbasic) and one column
   per basic user variable — at most one per generator in the OPF
   encoding — which goes to the fraction-free {!Linalg.Bareiss} kernel.
   Primal and dual core solves come back as integer numerators over one
   shared denominator, so the O(m) slack recovery and dual accumulation
   below stay gcd-free (docs/linalg.md walks through the sizes). *)
let validate ~n ~lo ~hi ~(rows : P.row array) ~obj (cert : F.certificate) =
  let m = Array.length rows in
  let nv = n + m in
  let st = cert.F.statuses in
  if Array.length st <> nv then raise (Reject "certificate arity");
  let bound_lo v = if v < n then lo.(v) else rows.(v - n).P.lo in
  let bound_hi v = if v < n then hi.(v) else rows.(v - n).P.hi in
  (* basic user variables = columns of the core *)
  let users = ref [] in
  for v = n - 1 downto 0 do
    match st.(v) with F.Basic -> users := v :: !users | _ -> ()
  done;
  let users = Array.of_list !users in
  let u = Array.length users in
  (* binding rows (slack nonbasic) = rows of the core *)
  let binding = ref [] in
  let basic_slacks = ref 0 in
  for k = m - 1 downto 0 do
    match st.(n + k) with
    | F.Basic -> incr basic_slacks
    | _ -> binding := k :: !binding
  done;
  let binding = Array.of_list !binding in
  (* basis squareness; #binding = m - #basic slacks = u, so the core is
     square exactly when the full basis is *)
  if !basic_slacks + u <> m then raise (Reject "basis size");
  let ucol = Array.make n (-1) in
  Array.iteri (fun i v -> ucol.(v) <- i) users;
  (* exact values for the nonbasic variables *)
  let clamp v x =
    let x =
      match bound_lo v with Some l when Q.compare x l < 0 -> l | _ -> x
    in
    match bound_hi v with Some h when Q.compare x h > 0 -> h | _ -> x
  in
  let nb_val = Array.make nv Q.zero in
  Array.iteri
    (fun v s ->
      match s with
      | F.Basic -> ()
      | F.At_lower -> (
        match bound_lo v with
        | Some l -> nb_val.(v) <- l
        | None -> raise (Reject "at-lower without lower bound"))
      | F.At_upper -> (
        match bound_hi v with
        | Some h -> nb_val.(v) <- h
        | None -> raise (Reject "at-upper without upper bound"))
      | F.Between x ->
        if not (Float.is_finite x) then raise (Reject "between not finite");
        nb_val.(v) <- clamp v (Q.of_float x))
    st;
  (* core system: binding row k over basic user columns = rhs from the
     pinned nonbasic part (including that row's own slack) *)
  let core = Array.make_matrix u u Q.zero in
  let rhs = Array.make u Q.zero in
  Array.iteri
    (fun r k ->
      List.iter
        (fun (j, a) ->
          let c = ucol.(j) in
          if c >= 0 then core.(r).(c) <- Q.add core.(r).(c) a
          else rhs.(r) <- Q.sub rhs.(r) (Q.mul a nb_val.(j)))
        rows.(k).P.terms;
      rhs.(r) <- Q.add rhs.(r) nb_val.(n + k))
    binding;
  let xnum, xden =
    try Linalg.Bareiss.solve_raw core rhs
    with Linalg.Bareiss.Singular -> raise (Reject "singular basis")
  in
  let xu = Array.map (fun nm -> Q.make nm xden) xnum in
  (* primal feasibility: basic users against their boxes *)
  Array.iteri
    (fun i v ->
      let x = xu.(i) in
      (match bound_lo v with
      | Some l when Q.compare x l < 0 -> raise (Reject "primal below lower")
      | _ -> ());
      match bound_hi v with
      | Some h when Q.compare x h > 0 -> raise (Reject "primal above upper")
      | _ -> ())
    users;
  (* primal feasibility: each basic slack is its row's activity; the
     basic-user part accumulates integer numerators over the shared
     Bareiss denominator, one big gcd per row at the final division *)
  let qxden = Q.make xden B.one in
  Array.iteri
    (fun k (r : P.row) ->
      match st.(n + k) with
      | F.Basic ->
        let big = ref Q.zero and small = ref Q.zero in
        List.iter
          (fun (j, a) ->
            let c = ucol.(j) in
            if c >= 0 then big := Q.add !big (Q.mul a (Q.make xnum.(c) B.one))
            else small := Q.add !small (Q.mul a nb_val.(j)))
          r.P.terms;
        let s = Q.add (Q.div !big qxden) !small in
        (match r.P.lo with
        | Some l when Q.compare s l < 0 ->
          raise (Reject "primal below lower")
        | _ -> ());
        (match r.P.hi with
        | Some h when Q.compare s h > 0 ->
          raise (Reject "primal above upper")
        | _ -> ())
      | _ -> ())
    rows;
  (* duals: basic-slack rows have multiplier zero, the rest solve the
     transposed core against the basic users' costs *)
  let cost v =
    if v < n then match Imap.find_opt v obj with Some c -> c | None -> Q.zero
    else Q.zero
  in
  let coret = Array.init u (fun i -> Array.init u (fun j -> core.(j).(i))) in
  let ynum, yden =
    try Linalg.Bareiss.solve_raw coret (Array.map cost users)
    with Linalg.Bareiss.Singular -> raise (Reject "singular basis")
  in
  let qyden = Q.make yden B.one in
  let ya_num = Array.make nv Q.zero in
  Array.iteri
    (fun r k ->
      if not (B.is_zero ynum.(r)) then begin
        let yq = Q.make ynum.(r) B.one in
        List.iter
          (fun (j, a) -> ya_num.(j) <- Q.add ya_num.(j) (Q.mul yq a))
          rows.(k).P.terms;
        ya_num.(n + k) <- Q.sub ya_num.(n + k) yq
      end)
    binding;
  Array.iteri
    (fun v s ->
      match s with
      | F.Basic -> ()
      | _ ->
        let fixed =
          match (bound_lo v, bound_hi v) with
          | Some l, Some h -> Q.compare l h = 0
          | _ -> false
        in
        if not fixed then begin
          let d = Q.sub (cost v) (Q.div ya_num.(v) qyden) in
          match s with
          | F.At_lower ->
            if Q.sign d < 0 then raise (Reject "reduced cost at lower")
          | F.At_upper ->
            if Q.sign d > 0 then raise (Reject "reduced cost at upper")
          | F.Between _ ->
            if Q.sign d <> 0 then raise (Reject "reduced cost between")
          | F.Basic -> ()
        end)
    st;
  Array.init n (fun v ->
      if ucol.(v) >= 0 then xu.(ucol.(v)) else nb_val.(v))

(* ---- presolve, once per solve ---- *)

let report_stats (st : P.stats) =
  Obs.Counter.add c_rows_eliminated st.P.rows_eliminated;
  Obs.Counter.add c_bounds_tightened st.P.bounds_tightened;
  Obs.Counter.add c_vars_fixed st.P.vars_fixed;
  Obs.Histogram.observe_int h_presolve_rows st.P.rows_eliminated

(* both simplex instances and the certificate check run on this one
   exact reduction; [None] is a sound infeasibility verdict *)
let presolve t =
  let vars = Array.of_list (List.rev t.vars) in
  match
    P.run ~n_vars:t.nvars ~lo:(Array.map fst vars) ~hi:(Array.map snd vars)
      (List.rev t.rows)
  with
  | P.Infeasible { stats; _ } ->
    report_stats stats;
    Obs.Counter.incr c_presolve_infeasible;
    None
  | P.Reduced { lo; hi; rows; fixed = _; stats } ->
    report_stats stats;
    Some (lo, hi, Array.of_list rows)

(* the exact simplex on presolved rows, warm-started by [warm] *)
let exact ~lo ~hi ~rows ~warm obj ~constant =
  let e = E.create () in
  Array.iteri (fun v lo -> ignore (E.add_var ?lo ?hi:hi.(v) e)) lo;
  warm (E.set_initial e);
  Array.iter (fun (r : P.row) -> E.add_range e r.P.terms ~lo:r.P.lo ~hi:r.P.hi) rows;
  match E.minimize e obj ~constant with
  | E.Optimal { objective; values }, _ ->
    Optimal { objective; values; certified = false }
  | E.Infeasible, _ -> Infeasible
  | E.Unbounded, _ -> Unbounded
  | E.Stall _, _ -> assert false (* the exact instance has no step limit *)

let solve_exact t obj ~constant =
  match presolve t with
  | None -> Infeasible
  | Some (lo, hi, rows) ->
    exact ~lo ~hi ~rows
      ~warm:(fun set -> Hashtbl.iter set t.warm)
      (canon obj) ~constant

(* ---- the certified pipeline ---- *)

let minimize ?mangle_cert t obj ~constant =
  Obs.Trace.with_span "lp.certify.minimize" @@ fun () ->
  let obj = canon obj in
  match presolve t with
  | None -> Infeasible
  | Some (lo, hi, rows) ->
    let n = t.nvars in
    let fl = Option.map Q.to_float in
    let floats = List.map (fun (v, c) -> (v, Q.to_float c)) in
    let f = F.create () in
    Array.iteri (fun v lo -> ignore (F.add_var ?lo:(fl lo) ?hi:(fl hi.(v)) f)) lo;
    Hashtbl.iter (fun v x -> F.set_initial f v (Q.to_float x)) t.warm;
    Array.iter
      (fun (r : P.row) -> F.add_range f (floats r.P.terms) ~lo:(fl r.P.lo) ~hi:(fl r.P.hi))
      rows;
    let result, cert = F.minimize f (floats obj) ~constant:(Q.to_float constant) in
    let obj_map =
      List.fold_left (fun acc (v, c) -> Imap.add v c acc) Imap.empty obj
    in
    let fallback fvals =
      Obs.Counter.incr c_fallback;
      let warm set =
        match fvals with
        | Some vals ->
          Array.iteri (fun v x -> if Float.is_finite x then set v (Q.of_float x)) vals
        | None -> Hashtbl.iter set t.warm
      in
      exact ~lo ~hi ~rows ~warm obj ~constant
    in
    (match (result, cert) with
    | F.Optimal { values = fvals; _ }, Some cert -> (
      let cert = match mangle_cert with Some g -> g cert | None -> cert in
      let checked =
        Obs.Histogram.time h_seconds (fun () ->
            try Some (validate ~n ~lo ~hi ~rows ~obj:obj_map cert)
            with Reject _ -> None)
      in
      match checked with
      | Some values ->
        Obs.Counter.incr c_ok;
        let objective =
          List.fold_left
            (fun acc (v, c) -> Q.add acc (Q.mul c values.(v)))
            constant obj
        in
        Optimal { objective; values; certified = true }
      | None ->
        Obs.Counter.incr c_fail;
        fallback (Some fvals))
    | F.Optimal { values = fvals; _ }, None | F.Stall { values = fvals }, _ ->
      fallback (Some fvals)
    | (F.Infeasible | F.Unbounded), _ -> fallback None)
