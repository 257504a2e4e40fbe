module Q = Numeric.Rat
module L = Smt.Linexp
module F = Smt.Form
module Solver = Smt.Solver
module N = Grid.Network

(* Asserts the rows of [Dc_opf.statement], then the paper's Eq. 30 total
   and a variable naming the cost (Eq. 35's left-hand side), which it
   returns. *)
let assert_statement solver (st : Dc_opf.statement) =
  let var =
    Array.map
      (fun (lo, hi) ->
        let v = Solver.fresh_real solver in
        if lo <> None || hi <> None then Solver.bound_real solver ?lo ?hi v;
        v)
      st.Dc_opf.bounds
  in
  let exp terms = L.sum (List.map (fun (v, c) -> L.monomial c var.(v)) terms) in
  List.iter
    (fun { Dc_opf.lo; hi; terms } ->
      let e = exp terms in
      match (lo, hi) with
      | Some lo, Some hi when Q.equal lo hi ->
        Solver.assert_form solver (F.eq e (L.const lo))
      | _ ->
        Option.iter (fun hi -> Solver.assert_form solver (F.le e (L.const hi))) hi;
        Option.iter (fun lo -> Solver.assert_form solver (F.ge e (L.const lo))) lo)
    st.Dc_opf.rows;
  (* Eq. 30: total generation serves total load (implied by the balance
     rows but asserted as the paper does) *)
  Solver.assert_form solver
    (F.eq
       (exp (Array.to_list (Array.map (fun v -> (v, Q.one)) st.Dc_opf.pg)))
       (L.const (Array.fold_left Q.add Q.zero st.Dc_opf.loads)));
  Solver.real_expr_var solver
    (L.add (exp st.Dc_opf.objective) (L.const st.Dc_opf.constant))

let obs_solves = Obs.Counter.make "opf.smt_opf.solves"
let obs_seconds = Obs.Histogram.make "opf.smt_opf.feasible.seconds"

let check st ~budget =
  Obs.Counter.incr obs_solves;
  Obs.Histogram.time obs_seconds (fun () ->
      let solver = Solver.create () in
      let cost = assert_statement solver st in
      Solver.assert_form solver (F.le (L.var cost) (L.const budget));
      Solver.check solver)

let feasible ?loads topo ~budget = check (Dc_opf.statement ?loads topo) ~budget

let minimum_cost ?loads ?(tolerance = Q.of_ints 1 100) topo =
  let grid = topo.Grid.Topology.grid in
  let st = Dc_opf.statement ?loads topo in
  (* bracketing: everything below the sum of alphas is infeasible, the
     all-at-pmax cost is an upper bound when any dispatch exists *)
  let at_pmax, lo0 =
    Dc_opf.generation_cost grid (Array.map (fun (g : N.gen) -> g.N.pmax) grid.N.gens)
  in
  let hi0 =
    List.fold_left (fun acc (pmax, beta) -> Q.add acc (Q.mul beta pmax)) lo0 at_pmax
  in
  if check st ~budget:hi0 = `Unsat then None
  else begin
    let rec bisect lo hi =
      (* invariant: hi is feasible, lo is infeasible (or the alpha floor) *)
      if Q.( <= ) (Q.sub hi lo) tolerance then Some hi
      else begin
        let mid = Q.div (Q.add lo hi) (Q.of_int 2) in
        match check st ~budget:mid with
        | `Sat -> bisect lo mid
        | `Unsat -> bisect mid hi
      end
    in
    bisect lo0 hi0
  end
