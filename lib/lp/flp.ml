(* Float bounded-variable simplex, the float engine of Certify.  Mirrors
   Lp's structure: deferred tableau build, one slack per recorded row,
   phase-I bound repair, phase-II objective descent, both under Bland's
   rule, with epsilon comparisons. *)

module Imap = Map.Make (Int)

let eps = 1e-9

type result =
  | Optimal of { objective : float; values : float array }
  | Infeasible
  | Unbounded
  | Stall of { values : float array }

type var_status = Basic | At_lower | At_upper | Between of float

type certificate = { statuses : var_status array }

let c_pivots = Obs.Counter.make "lp.float.pivots"
let c_stall = Obs.Counter.make "lp.float.stall"
let h_pivots = Obs.Histogram.make "lp.float.pivots_per_solve"

type pending = {
  pterms : (int * float) list;
  plo : float; (* neg_infinity = free below *)
  phi : float; (* infinity = free above *)
}

type t = {
  mutable nvars : int;
  mutable lo : float array; (* neg_infinity = free below *)
  mutable hi : float array; (* infinity = free above *)
  mutable beta : float array;
  mutable rows : float Imap.t Imap.t;
  mutable pending : pending list; (* reversed insertion order *)
  mutable pivots : int;
  mutable user_vars : int;
  mutable built : bool;
}

let create () =
  {
    nvars = 0;
    lo = Array.make 16 neg_infinity;
    hi = Array.make 16 infinity;
    beta = Array.make 16 0.0;
    rows = Imap.empty;
    pending = [];
    pivots = 0;
    user_vars = 0;
    built = false;
  }

let grow t =
  let cap = Array.length t.beta in
  if t.nvars > cap then begin
    let ncap = max (2 * cap) t.nvars in
    let extend a fill =
      let b = Array.make ncap fill in
      Array.blit a 0 b 0 cap;
      b
    in
    t.lo <- extend t.lo neg_infinity;
    t.hi <- extend t.hi infinity;
    t.beta <- extend t.beta 0.0
  end

let new_var ?(lo = neg_infinity) ?(hi = infinity) t =
  let v = t.nvars in
  t.nvars <- t.nvars + 1;
  grow t;
  t.lo.(v) <- lo;
  t.hi.(v) <- hi;
  t.beta.(v) <- (if lo > 0.0 then lo else if hi < 0.0 then hi else 0.0);
  v

let add_var ?lo ?hi t =
  if t.built then invalid_arg "Flp.add_var: tableau already built";
  let v = new_var ?lo ?hi t in
  t.user_vars <- t.user_vars + 1;
  v

(* warm start: set a variable's initial value (clamped to its bounds);
   call before minimize *)
let set_initial t v x =
  t.beta.(v) <- Float.min t.hi.(v) (Float.max t.lo.(v) x)

(* rows and the objective range over user variables only, so merging
   repeated variables (dropping sums below eps) is all a row needs *)
let normalize_terms terms =
  List.fold_left
    (fun acc (v, c) ->
      Imap.update v
        (function
          | None -> if Float.abs c < eps then None else Some c
          | Some c0 ->
            let s = c0 +. c in
            if Float.abs s < eps then None else Some s)
        acc)
    Imap.empty terms

let row_value t row =
  Imap.fold (fun v c acc -> acc +. (c *. t.beta.(v))) row 0.0

let add_range t terms ~lo ~hi =
  if t.built then invalid_arg "Flp: constraint added after minimize";
  t.pending <- { pterms = terms; plo = lo; phi = hi } :: t.pending

let install_row t terms lo hi =
  let row = normalize_terms terms in
  let s = new_var t in
  t.lo.(s) <- lo;
  t.hi.(s) <- hi;
  t.rows <- Imap.add s row t.rows;
  t.beta.(s) <- row_value t row

(* fresh unbounded slack for the objective *)
let add_slack t terms =
  let row = normalize_terms terms in
  let s = new_var t in
  t.rows <- Imap.add s row t.rows;
  t.beta.(s) <- row_value t row;
  s

let build t =
  t.built <- true;
  List.iter (fun p -> install_row t p.pterms p.plo p.phi) (List.rev t.pending)

let below_lo t x = t.beta.(x) < t.lo.(x) -. eps
let above_hi t x = t.beta.(x) > t.hi.(x) +. eps
let can_increase t x = t.beta.(x) < t.hi.(x) -. eps
let can_decrease t x = t.beta.(x) > t.lo.(x) +. eps

(* Pivoting runs on a mutable dense tableau rather than the persistent
   maps used during construction.  OPF-style LPs have dense columns
   (every generator appears in every flow row), so a map-of-maps pivot
   rewrites nearly every row functionally — allocation and log factors
   on each of millions of entries.  The dense form updates in place.
   Rows are indexed by position; [basis]/[rowof] carry the
   basic-variable correspondence both ways, and every scan that used to
   fold a map in ascending key order iterates variable ids ascending, so
   Bland/Dantzig tie-breaking picks the same pivots. *)
type tab = {
  nv : int;
  basis : int array; (* row index -> basic variable *)
  rowof : int array; (* variable -> row index, -1 when nonbasic *)
  mat : float array array; (* row -> coefficients over every variable *)
}

let tab_of t =
  let nv = t.nvars in
  let m = Imap.cardinal t.rows in
  let basis = Array.make m 0 in
  let rowof = Array.make nv (-1) in
  let mat = Array.make m [||] in
  let r = ref 0 in
  Imap.iter
    (fun b row ->
      let a = Array.make nv 0.0 in
      Imap.iter (fun v c -> a.(v) <- c) row;
      basis.(!r) <- b;
      rowof.(b) <- !r;
      mat.(!r) <- a;
      incr r)
    t.rows;
  { nv; basis; rowof; mat }

let pivot t tb xi xj =
  Obs.Probe.poll ();
  t.pivots <- t.pivots + 1;
  Obs.Counter.incr c_pivots;
  let r = tb.rowof.(xi) in
  let row = tb.mat.(r) in
  let inv_a = 1.0 /. row.(xj) in
  (* the departing variable's row becomes the entering variable's row *)
  for v = 0 to tb.nv - 1 do
    row.(v) <- -.row.(v) *. inv_a
  done;
  row.(xj) <- 0.0;
  row.(xi) <- inv_a;
  for r2 = 0 to Array.length tb.mat - 1 do
    if r2 <> r then begin
      let row2 = tb.mat.(r2) in
      let c = row2.(xj) in
      if c <> 0.0 then begin
        row2.(xj) <- 0.0;
        for v = 0 to tb.nv - 1 do
          let cv = row.(v) in
          if cv <> 0.0 then begin
            let c0 = row2.(v) in
            let s = c0 +. (c *. cv) in
            (* accumulations cancelling below eps are dropped to zero;
               fresh fill is kept however small *)
            row2.(v) <- (if c0 <> 0.0 && Float.abs s < eps then 0.0 else s)
          end
        done
      end
    end
  done;
  tb.basis.(r) <- xj;
  tb.rowof.(xi) <- -1;
  tb.rowof.(xj) <- r

let pivot_and_update t tb xi xj v =
  let a = tb.mat.(tb.rowof.(xi)).(xj) in
  let theta = (v -. t.beta.(xi)) /. a in
  t.beta.(xi) <- v;
  t.beta.(xj) <- t.beta.(xj) +. theta;
  for r = 0 to Array.length tb.mat - 1 do
    let b = tb.basis.(r) in
    if b <> xi then begin
      let c = tb.mat.(r).(xj) in
      if c <> 0.0 then t.beta.(b) <- t.beta.(b) +. (c *. theta)
    end
  done;
  pivot t tb xi xj

(* Phase I.  Entering-variable choice: largest eligible coefficient
   (Dantzig-like) while progress is made, falling back to Bland's
   smallest-index rule after a stall to guarantee termination. *)
let feasibility t tb =
  let steps = ref 0 in
  let bland = ref false in
  let rec loop () =
    incr steps;
    if !steps > 200000 then `Stall
    else begin
      if !steps > 5000 then bland := true;
      let violated = ref (-1) in
      (let v = ref 0 in
       while !violated < 0 && !v < tb.nv do
         if tb.rowof.(!v) >= 0 && (below_lo t !v || above_hi t !v) then
           violated := !v;
         incr v
       done);
      if !violated < 0 then `Feasible
      else begin
        let xi = !violated in
        let row = tb.mat.(tb.rowof.(xi)) in
        let too_low = below_lo t xi in
        let eligible v c =
          if too_low = (c > 0.0) then can_increase t v else can_decrease t v
        in
        let xj = ref (-1) in
        if !bland then begin
          let v = ref 0 in
          while !xj < 0 && !v < tb.nv do
            let c = row.(!v) in
            if c <> 0.0 && eligible !v c then xj := !v;
            incr v
          done
        end
        else begin
          let best = ref 0.0 in
          for v = 0 to tb.nv - 1 do
            let c = row.(v) in
            if c <> 0.0 && Float.abs c > !best && eligible v c then begin
              best := Float.abs c;
              xj := v
            end
          done
        end;
        if !xj < 0 then `Infeasible
        else begin
          let target = if too_low then t.lo.(xi) else t.hi.(xi) in
          pivot_and_update t tb xi !xj target;
          loop ()
        end
      end
    end
  in
  loop ()

let shift_nonbasic t tb xj step =
  if Float.abs step > 0.0 then begin
    for r = 0 to Array.length tb.mat - 1 do
      let c = tb.mat.(r).(xj) in
      if c <> 0.0 then
        t.beta.(tb.basis.(r)) <- t.beta.(tb.basis.(r)) +. (c *. step)
    done;
    t.beta.(xj) <- t.beta.(xj) +. step
  end

let optimize t tb z =
  let steps = ref 0 in
  let bland = ref false in
  let rec loop () =
    incr steps;
    if !steps > 200000 then `Stall
    else begin
      if !steps > 5000 then bland := true;
      let row_z = tb.mat.(tb.rowof.(z)) in
      let exj = ref (-1) in
      let edir = ref 1.0 in
      if !bland then begin
        let v = ref 0 in
        while !exj < 0 && !v < tb.nv do
          let c = row_z.(!v) in
          if Float.abs c >= eps then
            if c < 0.0 && can_increase t !v then begin
              exj := !v;
              edir := 1.0
            end
            else if c > 0.0 && can_decrease t !v then begin
              exj := !v;
              edir := -1.0
            end;
          incr v
        done
      end
      else begin
        (* Dantzig: most-improving reduced cost, first index on ties *)
        let best = ref 0.0 in
        for v = 0 to tb.nv - 1 do
          let c = row_z.(v) in
          if Float.abs c >= eps then
            if c < 0.0 && -.c > !best && can_increase t v then begin
              best := -.c;
              exj := v;
              edir := 1.0
            end
            else if c > 0.0 && c > !best && can_decrease t v then begin
              best := c;
              exj := v;
              edir := -1.0
            end
        done
      end;
      if !exj < 0 then `Optimal
      else begin
        let xj = !exj and dir = !edir in
        let found = ref false in
        let best = ref infinity in
        let who = ref (-1) in
        (* -1 = the entering variable's own bound *)
        (let own =
           if dir > 0.0 then t.hi.(xj) -. t.beta.(xj)
           else t.beta.(xj) -. t.lo.(xj)
         in
         if own < infinity then begin
           found := true;
           best := own
         end);
        for v = 0 to tb.nv - 1 do
          let r = tb.rowof.(v) in
          if r >= 0 && v <> z then begin
            let c = tb.mat.(r).(xj) in
            if c <> 0.0 then begin
              let rate = c *. dir in
              let limit =
                if rate > eps then (t.hi.(v) -. t.beta.(v)) /. rate
                else if rate < -.eps then (t.lo.(v) -. t.beta.(v)) /. rate
                else infinity
              in
              if limit < infinity && ((not !found) || limit < !best) then begin
                found := true;
                best := limit;
                who := v
              end
            end
          end
        done;
        if not !found then `Unbounded
        else if !who < 0 then begin
          shift_nonbasic t tb xj (dir *. !best);
          loop ()
        end
        else begin
          let xi = !who in
          let rate = tb.mat.(tb.rowof.(xi)).(xj) *. dir in
          let blocked = if rate > 0.0 then t.hi.(xi) else t.lo.(xi) in
          pivot_and_update t tb xi xj blocked;
          loop ()
        end
      end
    end
  in
  loop ()

(* Basis certificate: position of every variable except the objective
   slack [z] (which enters basic and never leaves — neither loop ever
   selects it as entering).  Nonbasic variables sitting strictly inside
   their box (free variables) are reported as [Between] so the exact
   check can pin them to the float point. *)
let certificate t tb z =
  let statuses =
    Array.init z (fun v ->
        if tb.rowof.(v) >= 0 then Basic
        else if t.lo.(v) = t.hi.(v) then At_lower
        else if Float.abs (t.beta.(v) -. t.lo.(v)) <= eps then At_lower
        else if Float.abs (t.beta.(v) -. t.hi.(v)) <= eps then At_upper
        else Between t.beta.(v))
  in
  { statuses }

let minimize_cert t obj ~constant =
  let p0 = t.pivots in
  let finish r =
    Obs.Histogram.observe_int h_pivots (t.pivots - p0);
    r
  in
  Obs.Trace.with_span "lp.float.minimize" @@ fun () ->
  build t;
  let z = add_slack t obj in
  let tb = tab_of t in
  let user_values () = Array.init t.user_vars (fun v -> t.beta.(v)) in
  finish
    (match feasibility t tb with
    | `Infeasible -> (Infeasible, None)
    | `Stall ->
      Obs.Counter.incr c_stall;
      (Stall { values = user_values () }, None)
    | `Feasible -> (
      match optimize t tb z with
      | `Unbounded -> (Unbounded, None)
      | `Stall ->
        Obs.Counter.incr c_stall;
        (Stall { values = user_values () }, None)
      | `Optimal ->
        ( Optimal
            { objective = t.beta.(z) +. constant; values = user_values () },
          Some (certificate t tb z) )))
