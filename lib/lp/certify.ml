(* Certified float LP: run Flp, then prove its verdict after the fact
   with one exact rational refactorization of the final basis.  On any
   gap — certificate rejected, float stall, float infeasible/unbounded —
   re-solve with the exact simplex, warm-started from the float point, so
   every answer leaving this module is exact. *)

module Q = Numeric.Rat
module B = Numeric.Bigint
module Imap = Map.Make (Int)
module P = Analysis.Presolve

let c_ok = Obs.Counter.make "lp.certify.ok"
let c_fail = Obs.Counter.make "lp.certify.fail"
let c_fallback = Obs.Counter.make "lp.certify.fallback"
let h_seconds = Obs.Histogram.make "lp.certify.seconds"

(* the exact presolve runs here, before the float solve; its counters are
   shared with Lp *)
let c_rows_eliminated = Obs.Counter.make "lp.presolve.rows_eliminated"
let c_bounds_tightened = Obs.Counter.make "lp.presolve.bounds_tightened"
let c_vars_fixed = Obs.Counter.make "lp.presolve.vars_fixed"
let c_presolve_infeasible = Obs.Counter.make "lp.presolve.infeasible"
let h_presolve_rows = Obs.Histogram.make "lp.presolve.rows_eliminated_per_solve"

type row = { terms : (int * Q.t) list; rlo : Q.t option; rhi : Q.t option }

type t = {
  mutable nvars : int;
  mutable vars : (Q.t option * Q.t option) list; (* reversed *)
  mutable rows : row list; (* reversed *)
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

let add_row t ?rlo ?rhi terms = t.rows <- { terms = canon terms; rlo; rhi } :: t.rows
let add_le t terms b = add_row t ~rhi:b terms
let add_ge t terms b = add_row t ~rlo:b terms
let add_eq t terms b = add_row t ~rlo:b ~rhi:b terms

(* ---- exact certificate check ---- *)

exception Reject of string

(* The (post-presolve) problem is: minimize c.x subject to the variable
   box and, per row k, [rlo_k <= a_k . x <= rhi_k] — equivalently
   [a_k . x - s_k = 0] with slack s_k boxed by the row bounds.  Variable
   ids: user vars [0..n-1], slack for row k at [n + k] (the layout Flp
   produces, one {!Flp.add_range} slack per row).

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
let validate ~n ~lo ~hi ~(rows : P.row array) ~obj (cert : Flp.certificate) =
  let m = Array.length rows in
  let nv = n + m in
  let st = cert.Flp.statuses in
  if Array.length st <> nv then raise (Reject "certificate arity");
  let bound_lo v = if v < n then lo.(v) else rows.(v - n).P.lo in
  let bound_hi v = if v < n then hi.(v) else rows.(v - n).P.hi in
  (* basic user variables = columns of the core *)
  let users = ref [] in
  for v = n - 1 downto 0 do
    match st.(v) with Flp.Basic -> users := v :: !users | _ -> ()
  done;
  let users = Array.of_list !users in
  let u = Array.length users in
  (* binding rows (slack nonbasic) = rows of the core *)
  let binding = ref [] in
  let basic_slacks = ref 0 in
  for k = m - 1 downto 0 do
    match st.(n + k) with
    | Flp.Basic -> incr basic_slacks
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
      | Flp.Basic -> ()
      | Flp.At_lower -> (
        match bound_lo v with
        | Some l -> nb_val.(v) <- l
        | None -> raise (Reject "at-lower without lower bound"))
      | Flp.At_upper -> (
        match bound_hi v with
        | Some h -> nb_val.(v) <- h
        | None -> raise (Reject "at-upper without upper bound"))
      | Flp.Between x ->
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
      | Flp.Basic ->
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
      | Flp.Basic -> ()
      | _ ->
        let fixed =
          match (bound_lo v, bound_hi v) with
          | Some l, Some h -> Q.compare l h = 0
          | _ -> false
        in
        if not fixed then begin
          let d = Q.sub (cost v) (Q.div ya_num.(v) qyden) in
          match s with
          | Flp.At_lower ->
            if Q.sign d < 0 then raise (Reject "reduced cost at lower")
          | Flp.At_upper ->
            if Q.sign d > 0 then raise (Reject "reduced cost at upper")
          | Flp.Between _ ->
            if Q.sign d <> 0 then raise (Reject "reduced cost between")
          | Flp.Basic -> ()
        end)
    st;
  Array.init n (fun v ->
      if ucol.(v) >= 0 then xu.(ucol.(v)) else nb_val.(v))

(* ---- exact fallback ---- *)

let linexp_of terms =
  Smt.Linexp.sum (List.map (fun (v, c) -> Smt.Linexp.monomial c v) terms)

let exact_fallback t obj ~constant ~warm_values =
  let lp = Lp.create () in
  List.iter
    (fun (lo, hi) -> ignore (Lp.add_var ?lo ?hi lp))
    (List.rev t.vars);
  (match warm_values with
  | Some vals ->
    Array.iteri
      (fun v x -> if Float.is_finite x then Lp.set_initial lp v (Q.of_float x))
      vals
  | None -> Hashtbl.iter (fun v x -> Lp.set_initial lp v x) t.warm);
  List.iter
    (fun r ->
      let e = linexp_of r.terms in
      match (r.rlo, r.rhi) with
      | Some l, Some h when Q.equal l h -> Lp.add_eq lp e l
      | rlo, rhi ->
        (match rlo with Some l -> Lp.add_ge lp e l | None -> ());
        (match rhi with Some h -> Lp.add_le lp e h | None -> ()))
    (List.rev t.rows);
  match Lp.minimize lp (linexp_of obj) with
  | Lp.Optimal { objective; values } ->
    Optimal { objective = Q.add objective constant; values; certified = false }
  | Lp.Infeasible -> Infeasible
  | Lp.Unbounded -> Unbounded

let solve_exact t obj ~constant =
  exact_fallback t (canon obj) ~constant ~warm_values:None

(* ---- the certified pipeline ---- *)

let report_stats (st : P.stats) =
  Obs.Counter.add c_rows_eliminated st.P.rows_eliminated;
  Obs.Counter.add c_bounds_tightened st.P.bounds_tightened;
  Obs.Counter.add c_vars_fixed st.P.vars_fixed;
  Obs.Histogram.observe_int h_presolve_rows st.P.rows_eliminated

let minimize ?mangle_cert t obj ~constant =
  Obs.Trace.with_span "lp.certify.minimize" @@ fun () ->
  let obj = canon obj in
  let n = t.nvars in
  let vars = Array.of_list (List.rev t.vars) in
  let plo = Array.map fst vars and phi = Array.map snd vars in
  let prows =
    List.rev_map
      (fun r -> { P.terms = r.terms; lo = r.rlo; hi = r.rhi })
      t.rows
  in
  (* exact presolve up front: the float solve then runs on the reduced
     problem, and the certificate is checked against that same exact
     reduction *)
  match P.run ~n_vars:n ~lo:plo ~hi:phi prows with
  | P.Infeasible { stats; _ } ->
    report_stats stats;
    Obs.Counter.incr c_presolve_infeasible;
    Infeasible
  | P.Reduced { lo; hi; rows; fixed = _; stats } ->
    report_stats stats;
    let rows = Array.of_list rows in
    let f = Flp.create () in
    let fl = function Some q -> Q.to_float q | None -> neg_infinity in
    let fh = function Some q -> Q.to_float q | None -> infinity in
    for v = 0 to n - 1 do
      ignore (Flp.add_var ~lo:(fl lo.(v)) ~hi:(fh hi.(v)) f)
    done;
    Hashtbl.iter (fun v x -> Flp.set_initial f v (Q.to_float x)) t.warm;
    Array.iter
      (fun (r : P.row) ->
        let terms = List.map (fun (v, c) -> (v, Q.to_float c)) r.P.terms in
        Flp.add_range f terms ~lo:(fl r.P.lo) ~hi:(fh r.P.hi))
      rows;
    let fobj = List.map (fun (v, c) -> (v, Q.to_float c)) obj in
    let result, cert = Flp.minimize_cert f fobj ~constant:(Q.to_float constant) in
    let obj_map =
      List.fold_left (fun acc (v, c) -> Imap.add v c acc) Imap.empty obj
    in
    let fallback warm =
      Obs.Counter.incr c_fallback;
      exact_fallback t obj ~constant ~warm_values:warm
    in
    (match (result, cert) with
    | Flp.Optimal { values = fvals; _ }, Some cert -> (
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
    | Flp.Optimal { values = fvals; _ }, None -> fallback (Some fvals)
    | Flp.Stall { values = fvals }, _ -> fallback (Some fvals)
    | Flp.Infeasible, _ -> fallback None
    | Flp.Unbounded, _ -> fallback None)
