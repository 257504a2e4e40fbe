(* The bounded-variable primal simplex over a number type.  The float and
   exact instances share every scan and update; they differ only in the
   tolerance, the pivot schedule and the two O(rows x columns) row
   kernels, which each instance writes over its own unboxed (float) or
   sparse-aware (rational) arrays. *)

module type NUM = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val abs : t -> t
  val lt : t -> t -> bool
  val le : t -> t -> bool
  val is_zero : t -> bool
  val eps : t
  val name : string
  val bland_after : int
  val step_limit : int option
  val add_scaled : t array -> t -> t array -> unit
  val neg_scale : t array -> t -> unit
end

module type S = sig
  type num

  type result =
    | Optimal of { objective : num; values : num array }
    | Infeasible
    | Unbounded
    | Stall of { values : num array }

  type var_status = Basic | At_lower | At_upper | Between of num
  type certificate = { statuses : var_status array }
  type t

  val create : unit -> t
  val add_var : ?lo:num -> ?hi:num -> t -> int
  val set_initial : t -> int -> num -> unit
  val add_range : t -> (int * num) list -> lo:num option -> hi:num option -> unit

  val minimize :
    t -> (int * num) list -> constant:num -> result * certificate option
end

module Make (N : NUM) : S with type num = N.t = struct
  type num = N.t

  type result =
    | Optimal of { objective : N.t; values : N.t array }
    | Infeasible
    | Unbounded
    | Stall of { values : N.t array }

  type var_status = Basic | At_lower | At_upper | Between of N.t
  type certificate = { statuses : var_status array }

  let c_pivots = Obs.Counter.make ("lp." ^ N.name ^ ".pivots")
  let h_pivots = Obs.Histogram.make ("lp." ^ N.name ^ ".pivots_per_solve")

  let c_stall =
    Option.map (fun _ -> Obs.Counter.make ("lp." ^ N.name ^ ".stall")) N.step_limit

  let span = "lp." ^ N.name ^ ".minimize"
  let minus_one = N.neg N.one
  let neg_eps = N.neg N.eps

  (* the problem as recorded; the tableau is built by [minimize] *)
  type t = {
    mutable n : int;
    mutable boxes : (N.t option * N.t option) list; (* reversed *)
    mutable starts : (int * N.t) list; (* reversed *)
    mutable ranges : ((int * N.t) list * N.t option * N.t option) list;
        (* reversed *)
  }

  let create () = { n = 0; boxes = []; starts = []; ranges = [] }

  let add_var ?lo ?hi t =
    t.boxes <- (lo, hi) :: t.boxes;
    t.n <- t.n + 1;
    t.n - 1

  let set_initial t v x = t.starts <- (v, x) :: t.starts
  let add_range t terms ~lo ~hi = t.ranges <- (terms, lo, hi) :: t.ranges

  (* Pivoting runs on a mutable dense tableau.  OPF-style LPs have dense
     columns (every generator appears in every flow row), so a sparse
     pivot would rewrite nearly every row anyway.  Row r holds basic
     variable [basis.(r)] over every variable id (basic columns are zero);
     [rowof] is the inverse map, -1 when nonbasic.  Every scan runs over
     variable ids in ascending order, so ties go to the lowest index and
     Bland's rule is the smallest-index rule. *)
  type state = {
    nv : int;
    lo : N.t option array;
    hi : N.t option array;
    beta : N.t array; (* current value of every variable *)
    basis : int array;
    rowof : int array;
    mat : N.t array array;
    mutable pivots : int;
  }

  let below_lo s x =
    match s.lo.(x) with Some l -> N.lt s.beta.(x) (N.sub l N.eps) | None -> false

  let above_hi s x =
    match s.hi.(x) with Some h -> N.lt (N.add h N.eps) s.beta.(x) | None -> false

  let can_increase s x =
    match s.hi.(x) with Some h -> N.lt s.beta.(x) (N.sub h N.eps) | None -> true

  let can_decrease s x =
    match s.lo.(x) with Some l -> N.lt (N.add l N.eps) s.beta.(x) | None -> true

  let clamp lo hi x =
    let x = match lo with Some l when N.lt x l -> l | _ -> x in
    match hi with Some h when N.lt h x -> h | _ -> x

  (* variables, then one bounded slack per row, then the free objective
     slack [z = nv - 1], which enters the basis and never leaves *)
  let build t obj =
    let n = t.n and ranges = List.rev t.ranges in
    let m = List.length ranges in
    let nv = n + m + 1 in
    let lo = Array.make nv None and hi = Array.make nv None in
    List.iteri
      (fun i (l, h) ->
        lo.(n - 1 - i) <- l;
        hi.(n - 1 - i) <- h)
      t.boxes;
    let beta = Array.make nv N.zero in
    for v = 0 to n - 1 do
      beta.(v) <-
        (match (lo.(v), hi.(v)) with
        | Some l, _ when N.lt N.zero l -> l
        | _, Some h when N.lt h N.zero -> h
        | _ -> N.zero)
    done;
    List.iter
      (fun (v, x) -> beta.(v) <- clamp lo.(v) hi.(v) x)
      (List.rev t.starts);
    (* a row over the variables: repeated ids merge, and sums below eps
       are dropped to zero *)
    let dense terms =
      let a = Array.make nv N.zero in
      List.iter
        (fun (v, c) ->
          let s = N.add a.(v) c in
          a.(v) <- (if N.lt (N.abs s) N.eps then N.zero else s))
        terms;
      let value = ref N.zero in
      for v = 0 to n - 1 do
        if not (N.is_zero a.(v)) then value := N.add !value (N.mul a.(v) beta.(v))
      done;
      (a, !value)
    in
    let mat = Array.make (m + 1) [||] in
    List.iteri
      (fun k (terms, l, h) ->
        let a, value = dense terms in
        mat.(k) <- a;
        lo.(n + k) <- l;
        hi.(n + k) <- h;
        beta.(n + k) <- value)
      ranges;
    let a, value = dense obj in
    mat.(m) <- a;
    beta.(nv - 1) <- value;
    {
      nv;
      lo;
      hi;
      beta;
      basis = Array.init (m + 1) (fun r -> n + r);
      rowof = Array.init nv (fun v -> if v < n then -1 else v - n);
      mat;
      pivots = 0;
    }

  let pivot s xi xj =
    (* exact pivots are the expensive unit of work; polling here lets a
       cooperative cancel land mid-solve instead of after it *)
    Obs.Probe.poll ();
    s.pivots <- s.pivots + 1;
    Obs.Counter.incr c_pivots;
    let r = s.rowof.(xi) in
    let row = s.mat.(r) in
    let inv_a = N.div N.one row.(xj) in
    (* the departing variable's row becomes the entering variable's row *)
    N.neg_scale row inv_a;
    row.(xj) <- N.zero;
    row.(xi) <- inv_a;
    Array.iteri
      (fun r2 row2 ->
        if r2 <> r then begin
          let c = row2.(xj) in
          if not (N.is_zero c) then begin
            row2.(xj) <- N.zero;
            N.add_scaled row2 c row
          end
        end)
      s.mat;
    s.basis.(r) <- xj;
    s.rowof.(xi) <- -1;
    s.rowof.(xj) <- r

  (* move nonbasic [xj] by [step], carrying every basic variable along *)
  let shift_nonbasic s xj step =
    if not (N.is_zero step) then begin
      Array.iteri
        (fun r row ->
          let c = row.(xj) in
          if not (N.is_zero c) then begin
            let b = s.basis.(r) in
            s.beta.(b) <- N.add s.beta.(b) (N.mul c step)
          end)
        s.mat;
      s.beta.(xj) <- N.add s.beta.(xj) step
    end

  (* set basic [xi] to [v] by moving [xj], then exchange them *)
  let pivot_and_update s xi xj v =
    let a = s.mat.(s.rowof.(xi)).(xj) in
    let theta = N.div (N.sub v s.beta.(xi)) a in
    s.beta.(xi) <- v;
    s.beta.(xj) <- N.add s.beta.(xj) theta;
    Array.iteri
      (fun r row ->
        let b = s.basis.(r) in
        if b <> xi then begin
          let c = row.(xj) in
          if not (N.is_zero c) then s.beta.(b) <- N.add s.beta.(b) (N.mul c theta)
        end)
      s.mat;
    pivot s xi xj

  let first_index nv p =
    let v = ref 0 in
    while !v < nv && not (p !v) do
      incr v
    done;
    if !v < nv then !v else -1

  (* the entering variable among the columns [ok] admits: the first under
     Bland's rule, else the largest |coefficient|, first on ties *)
  let entering s ~bland row ok =
    if bland then first_index s.nv (fun v -> ok v row.(v))
    else begin
      let best = ref N.zero and who = ref (-1) in
      for v = 0 to s.nv - 1 do
        let c = row.(v) in
        if ok v c && N.lt !best (N.abs c) then begin
          best := N.abs c;
          who := v
        end
      done;
      !who
    end

  let stalled steps =
    match N.step_limit with Some k -> steps > k | None -> false

  (* Phase I: pivot the lowest-index out-of-bounds basic variable onto the
     bound it violates *)
  let feasibility s =
    let rec loop steps =
      if stalled steps then `Stall
      else
        match first_index s.nv (fun v -> s.rowof.(v) >= 0 && (below_lo s v || above_hi s v)) with
        | -1 -> `Feasible
        | xi ->
          let row = s.mat.(s.rowof.(xi)) in
          let too_low = below_lo s xi in
          let eligible v c =
            (not (N.is_zero c))
            &&
            if too_low = N.lt N.zero c then can_increase s v
            else can_decrease s v
          in
          (match entering s ~bland:(steps > N.bland_after) row eligible with
          | -1 -> `Infeasible
          | xj ->
            let target = if too_low then s.lo.(xi) else s.hi.(xi) in
            pivot_and_update s xi xj (Option.get target);
            loop (steps + 1))
    in
    loop 1

  (* Phase II: minimise the objective slack [z] *)
  let optimize s z =
    let row_z = s.mat.(s.rowof.(z)) in
    let improving v c =
      N.le N.eps (N.abs c)
      && if N.lt c N.zero then can_increase s v
         else N.lt N.zero c && can_decrease s v
    in
    let rec loop steps =
      if stalled steps then `Stall
      else
        match entering s ~bland:(steps > N.bland_after) row_z improving with
        | -1 -> `Optimal
        | xj ->
          let up = N.lt row_z.(xj) N.zero in
          let dir = if up then N.one else minus_one in
          (* ratio test: the smallest step that drives a variable to a
             bound, the entering variable's own bound tried first *)
          let found = ref false and best = ref N.zero and who = ref (-1) in
          (match if up then s.hi.(xj) else s.lo.(xj) with
          | Some b ->
            found := true;
            best := if up then N.sub b s.beta.(xj) else N.sub s.beta.(xj) b
          | None -> ());
          for v = 0 to s.nv - 1 do
            let r = s.rowof.(v) in
            if r >= 0 && v <> z then begin
              let c = s.mat.(r).(xj) in
              if not (N.is_zero c) then begin
                let rate = N.mul c dir in
                let bound =
                  if N.lt N.eps rate then s.hi.(v)
                  else if N.lt rate neg_eps then s.lo.(v)
                  else None
                in
                match bound with
                | Some b ->
                  let limit = N.div (N.sub b s.beta.(v)) rate in
                  if (not !found) || N.lt limit !best then begin
                    found := true;
                    best := limit;
                    who := v
                  end
                | None -> ()
              end
            end
          done;
          if not !found then `Unbounded
          else if !who < 0 then begin
            shift_nonbasic s xj (N.mul dir !best);
            loop (steps + 1)
          end
          else begin
            let xi = !who in
            let rate = N.mul s.mat.(s.rowof.(xi)).(xj) dir in
            let blocked = if N.lt N.zero rate then s.hi.(xi) else s.lo.(xi) in
            pivot_and_update s xi xj (Option.get blocked);
            loop (steps + 1)
          end
    in
    loop 1

  (* Where every variable but [z] sits.  Nonbasic variables strictly
     inside their box (free variables) are reported as [Between], so an
     exact check can pin them to the point found. *)
  let certificate s z =
    let near b x =
      match b with Some b -> N.le (N.abs (N.sub x b)) N.eps | None -> false
    in
    let statuses =
      Array.init z (fun v ->
          let x = s.beta.(v) in
          if s.rowof.(v) >= 0 then Basic
          else
            match (s.lo.(v), s.hi.(v)) with
            | Some l, Some h when N.le l h && N.le h l -> At_lower
            | lo, hi ->
              if near lo x then At_lower
              else if near hi x then At_upper
              else Between x)
    in
    { statuses }

  let minimize t obj ~constant =
    Obs.Trace.with_span span @@ fun () ->
    let s = build t obj in
    let z = s.nv - 1 in
    let stall () =
      Option.iter Obs.Counter.incr c_stall;
      (Stall { values = Array.sub s.beta 0 t.n }, None)
    in
    let result =
      match feasibility s with
      | `Infeasible -> (Infeasible, None)
      | `Stall -> stall ()
      | `Feasible -> (
        match optimize s z with
        | `Unbounded -> (Unbounded, None)
        | `Stall -> stall ()
        | `Optimal ->
          ( Optimal
              {
                objective = N.add s.beta.(z) constant;
                values = Array.sub s.beta 0 t.n;
              },
            Some (certificate s z) ))
    in
    Obs.Histogram.observe_int h_pivots s.pivots;
    result
end

module Float = Make (struct
  type t = float

  let zero = 0.0
  let one = 1.0
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let neg = Float.neg
  let abs = Float.abs
  let lt (a : float) b = a < b
  let le (a : float) b = a <= b
  let is_zero x = x = 0.0
  let eps = 1e-9
  let name = "float"
  let bland_after = 5_000
  let step_limit = Some 200_000

  (* accumulations cancelling below eps are dropped to zero; fresh fill
     is kept however small *)
  let add_scaled dst c src =
    for v = 0 to Array.length dst - 1 do
      let cv = src.(v) in
      if cv <> 0.0 then begin
        let c0 = dst.(v) in
        let s = c0 +. (c *. cv) in
        dst.(v) <- (if c0 <> 0.0 && Float.abs s < eps then 0.0 else s)
      end
    done

  let neg_scale row k =
    for v = 0 to Array.length row - 1 do
      row.(v) <- -.row.(v) *. k
    done
end)

module Exact = Make (struct
  include Numeric.Rat

  let lt = ( < )
  let le = ( <= )
  let eps = zero
  let name = "exact"
  let bland_after = 0
  let step_limit = None

  let add_scaled dst c src =
    Array.iteri
      (fun v cv ->
        if not (is_zero cv) then
          let p = mul c cv in
          dst.(v) <- (if is_zero dst.(v) then p else add dst.(v) p))
      src

  let neg_scale row k =
    Array.iteri (fun v x -> if not (is_zero x) then row.(v) <- neg (mul x k)) row
end)
