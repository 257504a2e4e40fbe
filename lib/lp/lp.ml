module Q = Numeric.Rat
module Imap = Map.Make (Int)
module P = Analysis.Presolve

type result =
  | Optimal of { objective : Q.t; values : Q.t array }
  | Infeasible
  | Unbounded

let presolve_default = ref true

(* shared with Certify, which runs the same exact presolve *)
let c_rows_eliminated = Obs.Counter.make "lp.presolve.rows_eliminated"
let c_bounds_tightened = Obs.Counter.make "lp.presolve.bounds_tightened"
let c_vars_fixed = Obs.Counter.make "lp.presolve.vars_fixed"
let c_presolve_infeasible = Obs.Counter.make "lp.presolve.infeasible"
let c_pivots = Obs.Counter.make "lp.exact.pivots"
let h_pivots = Obs.Histogram.make "lp.exact.pivots_per_solve"

(* shared with Certify, like the presolve counters *)
let h_presolve_rows = Obs.Histogram.make "lp.presolve.rows_eliminated_per_solve"

(* a constraint as recorded before the tableau exists; [<=] and [>=] over
   the same expression merge into one two-sided pending row *)
type pending = {
  pterms : (int * Q.t) list;
  mutable plo : Q.t option;
  mutable phi : Q.t option;
  order : int; (* insertion rank, to keep tableau construction stable *)
}

type t = {
  mutable nvars : int;
  mutable lo : Q.t option array;
  mutable hi : Q.t option array;
  mutable beta : Q.t array;
  mutable rows : Q.t Imap.t Imap.t; (* basic var -> row over nonbasic vars *)
  pending : (string, pending) Hashtbl.t; (* expression key -> constraint *)
  mutable n_pending : int;
  mutable pivots : int;
  mutable user_vars : int; (* vars visible to the caller (before slacks) *)
  presolve : bool;
  mutable built : bool;
}

let create ?presolve () =
  {
    nvars = 0;
    lo = Array.make 16 None;
    hi = Array.make 16 None;
    beta = Array.make 16 Q.zero;
    rows = Imap.empty;
    pending = Hashtbl.create 64;
    n_pending = 0;
    pivots = 0;
    user_vars = 0;
    presolve = Option.value presolve ~default:!presolve_default;
    built = false;
  }

let n_pivots t = t.pivots

let grow t =
  let cap = Array.length t.beta in
  if t.nvars > cap then begin
    let ncap = max (2 * cap) t.nvars in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.lo <- extend t.lo None;
    t.hi <- extend t.hi None;
    t.beta <- extend t.beta Q.zero
  end

let new_var ?lo ?hi t =
  let v = t.nvars in
  t.nvars <- t.nvars + 1;
  grow t;
  t.lo.(v) <- lo;
  t.hi.(v) <- hi;
  (* start at a bound-respecting value *)
  (t.beta.(v) <-
    (match (lo, hi) with
    | Some l, _ when Q.( > ) l Q.zero -> l
    | _, Some h when Q.( < ) h Q.zero -> h
    | _ -> Q.zero));
  v

let add_var ?lo ?hi ?name t =
  ignore name;
  if t.built then invalid_arg "Lp.add_var: tableau already built";
  let v = new_var ?lo ?hi t in
  t.user_vars <- t.user_vars + 1;
  assert (v = t.user_vars - 1);
  v

(* warm start: set a variable's initial value (clamped to its bounds);
   call before minimize *)
let set_initial t v x =
  let x = match t.lo.(v) with Some l -> Q.max l x | None -> x in
  let x = match t.hi.(v) with Some h -> Q.min h x | None -> x in
  t.beta.(v) <- x

(* substitute basic variables out of a term map *)
let normalize_terms t terms =
  Imap.fold
    (fun v c acc ->
      let merge w cw acc =
        Imap.update w
          (function
            | None -> if Q.is_zero cw then None else Some cw
            | Some c0 ->
              let s = Q.add c0 cw in
              if Q.is_zero s then None else Some s)
          acc
      in
      match Imap.find_opt v t.rows with
      | None -> merge v c acc
      | Some row -> Imap.fold (fun w cw acc -> merge w (Q.mul c cw) acc) row acc)
    terms Imap.empty

let row_value t row =
  Imap.fold (fun v c acc -> Q.add acc (Q.mul c t.beta.(v))) row Q.zero

(* record (or tighten) the pending constraint lo <= e <= hi; bounds are
   shifted by the constant part of e so the stored row is pure terms *)
let record_constraint t ?lo ?hi e =
  if t.built then invalid_arg "Lp: constraint added after minimize";
  let const = Smt.Linexp.const_part e in
  let key = Smt.Linexp.key e in
  let p =
    match Hashtbl.find_opt t.pending key with
    | Some p -> p
    | None ->
      let p =
        {
          pterms = Smt.Linexp.terms e;
          plo = None;
          phi = None;
          order = t.n_pending;
        }
      in
      t.n_pending <- t.n_pending + 1;
      Hashtbl.add t.pending key p;
      p
  in
  let tighten current candidate keep_max =
    match (current, candidate) with
    | cur, None -> cur
    | None, Some c -> Some c
    | Some a, Some b -> Some (if keep_max then Q.max a b else Q.min a b)
  in
  p.plo <- tighten p.plo (Option.map (fun b -> Q.sub b const) lo) true;
  p.phi <- tighten p.phi (Option.map (fun b -> Q.sub b const) hi) false

let add_le t e b = record_constraint t ~hi:b e
let add_ge t e b = record_constraint t ~lo:b e
let add_eq t e b = record_constraint t ~lo:b ~hi:b e

(* materialise one constraint row as a bounded slack basic variable *)
let install_row t terms lo hi =
  let term_map =
    List.fold_left (fun m (v, c) -> Imap.add v c m) Imap.empty terms
  in
  let row = normalize_terms t term_map in
  let s = new_var t in
  t.lo.(s) <- lo;
  t.hi.(s) <- hi;
  t.rows <- Imap.add s row t.rows;
  t.beta.(s) <- row_value t row

let report_stats (st : P.stats) =
  Obs.Counter.add c_rows_eliminated st.P.rows_eliminated;
  Obs.Counter.add c_bounds_tightened st.P.bounds_tightened;
  Obs.Counter.add c_vars_fixed st.P.vars_fixed;
  Obs.Histogram.observe_int h_presolve_rows st.P.rows_eliminated

(* deferred tableau construction: presolve the pending rows (unless
   disabled), then build slack rows only for the survivors *)
let build t =
  t.built <- true;
  let pend = Hashtbl.fold (fun _ p acc -> p :: acc) t.pending [] in
  let pend = List.sort (fun a b -> compare a.order b.order) pend in
  if not t.presolve then begin
    List.iter (fun p -> install_row t p.pterms p.plo p.phi) pend;
    `Ok
  end
  else begin
    let n = t.user_vars in
    let lo = Array.init n (fun v -> t.lo.(v)) in
    let hi = Array.init n (fun v -> t.hi.(v)) in
    let rows =
      List.map (fun p -> { P.terms = p.pterms; lo = p.plo; hi = p.phi }) pend
    in
    match P.run ~n_vars:n ~lo ~hi rows with
    | P.Infeasible { stats; _ } ->
      report_stats stats;
      Obs.Counter.incr c_presolve_infeasible;
      `Infeasible
    | P.Reduced { lo; hi; rows; fixed; stats } ->
      report_stats stats;
      for v = 0 to n - 1 do
        t.lo.(v) <- lo.(v);
        t.hi.(v) <- hi.(v)
      done;
      List.iter (fun (v, x) -> t.beta.(v) <- x) fixed;
      (* re-clamp warm starts to the tightened box so every nonbasic
         variable starts within bounds *)
      for v = 0 to n - 1 do
        (match t.lo.(v) with
        | Some l when Q.( < ) t.beta.(v) l -> t.beta.(v) <- l
        | _ -> ());
        match t.hi.(v) with
        | Some h when Q.( > ) t.beta.(v) h -> t.beta.(v) <- h
        | _ -> ()
      done;
      List.iter (fun (r : P.row) -> install_row t r.P.terms r.P.lo r.P.hi) rows;
      `Ok
  end

(* a fresh basic variable equal to e - const(e), never shared: the
   objective variable must stay basic and unbounded through phase I *)
let fresh_slack t e =
  let terms =
    List.fold_left
      (fun m (v, c) -> Imap.add v c m)
      Imap.empty (Smt.Linexp.terms e)
  in
  let row = normalize_terms t terms in
  let s = new_var t in
  t.rows <- Imap.add s row t.rows;
  t.beta.(s) <- row_value t row;
  s

let below_lo t x = match t.lo.(x) with Some b -> Q.( < ) t.beta.(x) b | None -> false
let above_hi t x = match t.hi.(x) with Some b -> Q.( > ) t.beta.(x) b | None -> false
let can_increase t x = match t.hi.(x) with Some b -> Q.( < ) t.beta.(x) b | None -> true
let can_decrease t x = match t.lo.(x) with Some b -> Q.( > ) t.beta.(x) b | None -> true

let pivot t xi xj =
  (* exact pivots are the expensive unit of work; polling here lets a
     cooperative cancel land mid-solve instead of after it *)
  Obs.Probe.poll ();
  t.pivots <- t.pivots + 1;
  Obs.Counter.incr c_pivots;
  let row_i = Imap.find xi t.rows in
  let a = Imap.find xj row_i in
  let inv_a = Q.inv a in
  let row_j =
    Imap.fold
      (fun v c acc ->
        if v = xj then acc else Imap.add v (Q.neg (Q.mul c inv_a)) acc)
      row_i
      (Imap.singleton xi inv_a)
  in
  let rows = Imap.remove xi t.rows in
  let rows =
    Imap.map
      (fun row ->
        match Imap.find_opt xj row with
        | None -> row
        | Some c ->
          let row = Imap.remove xj row in
          Imap.fold
            (fun v cv acc ->
              Imap.update v
                (function
                  | None -> Some (Q.mul c cv)
                  | Some c0 ->
                    let s = Q.add c0 (Q.mul c cv) in
                    if Q.is_zero s then None else Some s)
                acc)
            row_j row)
      rows
  in
  t.rows <- Imap.add xj row_j rows

let pivot_and_update t xi xj v =
  let row_i = Imap.find xi t.rows in
  let a = Imap.find xj row_i in
  let theta = Q.div (Q.sub v t.beta.(xi)) a in
  t.beta.(xi) <- v;
  t.beta.(xj) <- Q.add t.beta.(xj) theta;
  Imap.iter
    (fun b row ->
      if b <> xi then
        match Imap.find_opt xj row with
        | None -> ()
        | Some c -> t.beta.(b) <- Q.add t.beta.(b) (Q.mul c theta))
    t.rows;
  pivot t xi xj

(* phase I: make the assignment respect all bounds (Bland's rule) *)
let feasibility t =
  let rec loop () =
    let violated =
      Imap.fold
        (fun b _ acc ->
          match acc with
          | Some _ -> acc
          | None -> if below_lo t b || above_hi t b then Some b else None)
        t.rows None
    in
    match violated with
    | None -> true
    | Some xi ->
      let row = Imap.find xi t.rows in
      let too_low = below_lo t xi in
      let xj =
        Imap.fold
          (fun v c acc ->
            match acc with
            | Some _ -> acc
            | None ->
              let ok =
                if too_low = (Q.sign c > 0) then can_increase t v
                else can_decrease t v
              in
              if ok then Some v else None)
          row None
      in
      (match xj with
      | None -> false
      | Some xj ->
        let target =
          if too_low then Option.get t.lo.(xi) else Option.get t.hi.(xi)
        in
        pivot_and_update t xi xj target;
        loop ())
  in
  loop ()

(* adjust a nonbasic variable by [step], updating dependent basics *)
let shift_nonbasic t xj step =
  if not (Q.is_zero step) then begin
    Imap.iter
      (fun b row ->
        match Imap.find_opt xj row with
        | None -> ()
        | Some c -> t.beta.(b) <- Q.add t.beta.(b) (Q.mul c step))
      t.rows;
    t.beta.(xj) <- Q.add t.beta.(xj) step
  end

(* phase II: minimise basic objective variable z (which has no bounds) *)
let optimize t z =
  let rec loop () =
    let row_z = Imap.find z t.rows in
    (* entering variable: smallest index whose move decreases z *)
    let entering =
      Imap.fold
        (fun v c acc ->
          match acc with
          | Some _ -> acc
          | None ->
            let dir = -Q.sign c in
            if dir > 0 && can_increase t v then Some (v, c, 1)
            else if dir < 0 && can_decrease t v then Some (v, c, -1)
            else None)
        row_z None
    in
    match entering with
    | None -> `Optimal
    | Some (xj, _, dir) ->
      (* ratio test: smallest step that drives some var to a bound *)
      let dirq = Q.of_int dir in
      let best = ref None in
      (* own bound of xj *)
      (match
         if dir > 0 then Option.map (fun h -> Q.sub h t.beta.(xj)) t.hi.(xj)
         else Option.map (fun l -> Q.sub t.beta.(xj) l) t.lo.(xj)
       with
      | Some limit -> best := Some (limit, `Own)
      | None -> ());
      Imap.iter
        (fun xi row ->
          if xi <> z then
            match Imap.find_opt xj row with
            | None -> ()
            | Some c ->
              let rate = Q.mul c dirq in
              (* beta_i moves by rate * step *)
              let limit =
                if Q.sign rate > 0 then
                  Option.map (fun h -> Q.div (Q.sub h t.beta.(xi)) rate) t.hi.(xi)
                else if Q.sign rate < 0 then
                  Option.map (fun l -> Q.div (Q.sub l t.beta.(xi)) rate) t.lo.(xi)
                else None
              in
              match limit with
              | None -> ()
              | Some lim -> (
                match !best with
                | Some (b, _) when Q.( <= ) b lim -> ()
                | _ -> best := Some (lim, `Basic xi)))
        t.rows;
      (match !best with
      | None -> `Unbounded
      | Some (step, `Own) ->
        shift_nonbasic t xj (Q.mul dirq step);
        loop ()
      | Some (step, `Basic xi) ->
        let blocked_value =
          let rate = Q.mul (Imap.find xj (Imap.find xi t.rows)) dirq in
          if Q.sign rate > 0 then Option.get t.hi.(xi) else Option.get t.lo.(xi)
        in
        ignore step;
        (* move xj so that xi lands exactly on its blocking bound, pivot *)
        pivot_and_update t xi xj blocked_value;
        loop ())
  in
  loop ()

let minimize t obj =
  let p0 = t.pivots in
  let finish r =
    Obs.Histogram.observe_int h_pivots (t.pivots - p0);
    r
  in
  Obs.Trace.with_span "lp.exact.minimize" @@ fun () ->
  finish
    (match build t with
    | `Infeasible -> Infeasible
    | `Ok -> (
      let z =
        fresh_slack t
          (Smt.Linexp.sub obj (Smt.Linexp.const (Smt.Linexp.const_part obj)))
      in
      let const = Smt.Linexp.const_part obj in
      if not (feasibility t) then Infeasible
      else
        match optimize t z with
        | `Unbounded -> Unbounded
        | `Optimal ->
          let values = Array.init t.user_vars (fun v -> t.beta.(v)) in
          Optimal { objective = Q.add t.beta.(z) const; values }))

let maximize t obj =
  match minimize t (Smt.Linexp.neg obj) with
  | Optimal { objective; values } -> Optimal { objective = Q.neg objective; values }
  | (Infeasible | Unbounded) as r -> r
