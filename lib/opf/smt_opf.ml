module Q = Numeric.Rat
module L = Smt.Linexp
module F = Smt.Form
module Solver = Smt.Solver
module N = Grid.Network

type encoded = { pg_vars : int array; theta_vars : int array; cost_var : int }

let encode solver ?loads (topo : Grid.Topology.t) =
  let grid = topo.Grid.Topology.grid in
  let b = grid.N.n_buses in
  let loads =
    match loads with
    | Some v -> v
    | None ->
      let v = Array.make b Q.zero in
      Array.iter (fun (l : N.load) -> v.(l.N.lbus) <- l.N.existing) grid.N.loads;
      v
  in
  let theta_vars = Array.init b (fun _ -> Solver.fresh_real solver) in
  Solver.bound_real solver ~lo:Q.zero ~hi:Q.zero
    theta_vars.(topo.Grid.Topology.slack);
  let pg_vars =
    Array.map
      (fun (g : N.gen) ->
        let v = Solver.fresh_real solver in
        (* Eq. 31: generation limits *)
        Solver.bound_real solver ~lo:g.N.pmin ~hi:g.N.pmax v;
        v)
      grid.N.gens
  in
  let flow_exp i =
    let ln = grid.N.lines.(i) in
    L.scale ln.N.admittance
      (L.sub (L.var theta_vars.(ln.N.from_bus)) (L.var theta_vars.(ln.N.to_bus)))
  in
  (* Eq. 34 (+ reverse direction): line capacities, mapped lines only
     (Eq. 32's k_i condition is a constant per topology here) *)
  Array.iteri
    (fun i (ln : N.line) ->
      if topo.Grid.Topology.mapped.(i) then begin
        Solver.assert_form solver (F.le (flow_exp i) (L.const ln.N.capacity));
        Solver.assert_form solver
          (F.ge (flow_exp i) (L.const (Q.neg ln.N.capacity)))
      end)
    grid.N.lines;
  (* Eq. 33: nodal balance *)
  for j = 0 to b - 1 do
    let inflow =
      L.sum
        (List.filter_map
           (fun i ->
             if topo.Grid.Topology.mapped.(i) then Some (flow_exp i) else None)
           (N.lines_in grid j))
    in
    let outflow =
      L.sum
        (List.filter_map
           (fun i ->
             if topo.Grid.Topology.mapped.(i) then Some (flow_exp i) else None)
           (N.lines_out grid j))
    in
    let gen_term =
      match
        Array.to_list grid.N.gens
        |> List.mapi (fun k (g : N.gen) -> (k, g))
        |> List.find_opt (fun (_, (g : N.gen)) -> g.N.gbus = j)
      with
      | Some (k, _) -> L.var pg_vars.(k)
      | None -> L.zero
    in
    Solver.assert_form solver
      (F.eq (L.sub inflow outflow) (L.sub (L.const loads.(j)) gen_term))
  done;
  (* Eq. 30: total generation serves total load (implied by Eq. 33 but
     asserted as the paper does) *)
  let total_load = Array.fold_left Q.add Q.zero loads in
  Solver.assert_form solver
    (F.eq
       (L.sum (Array.to_list (Array.map L.var pg_vars)))
       (L.const total_load));
  (* named cost variable (Eq. 35's left-hand side) *)
  let cost_exp =
    L.sum
      (Array.to_list
         (Array.mapi
            (fun k (g : N.gen) ->
              L.add (L.monomial g.N.beta pg_vars.(k)) (L.const g.N.alpha))
            grid.N.gens))
  in
  let cost_var = Solver.real_expr_var solver cost_exp in
  { pg_vars; theta_vars; cost_var }

let obs_solves = Obs.Counter.make "opf.smt_opf.solves"
let obs_seconds = Obs.Histogram.make "opf.smt_opf.feasible.seconds"

let feasible ?loads topo ~budget =
  Obs.Counter.incr obs_solves;
  Obs.Histogram.time obs_seconds (fun () ->
      let solver = Solver.create () in
      let e = encode solver ?loads topo in
      Solver.assert_form solver (F.le (L.var e.cost_var) (L.const budget));
      Solver.check solver)

let minimum_cost ?loads ?(tolerance = Q.of_ints 1 100) topo =
  let grid = topo.Grid.Topology.grid in
  (* bracketing: everything below the sum of alphas is infeasible, the
     all-at-pmax cost is an upper bound when any dispatch exists *)
  let lo0 =
    Array.fold_left (fun acc (g : N.gen) -> Q.add acc g.N.alpha) Q.zero
      grid.N.gens
  in
  let hi0 =
    Array.fold_left
      (fun acc (g : N.gen) ->
        Q.add acc (Q.add g.N.alpha (Q.mul g.N.beta g.N.pmax)))
      Q.zero grid.N.gens
  in
  if feasible ?loads topo ~budget:hi0 = `Unsat then None
  else begin
    let rec bisect lo hi =
      (* invariant: hi is feasible, lo is infeasible (or the alpha floor) *)
      if Q.( <= ) (Q.sub hi lo) tolerance then Some hi
      else begin
        let mid = Q.div (Q.add lo hi) (Q.of_int 2) in
        match feasible ?loads topo ~budget:mid with
        | `Sat -> bisect lo mid
        | `Unsat -> bisect mid hi
      end
    in
    bisect lo0 hi0
  end
