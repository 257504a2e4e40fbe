module Q = Numeric.Rat
module L = Smt.Linexp
module N = Grid.Network

type dispatch = {
  cost : Q.t;
  pg : Q.t array;
  theta : Q.t array;
  flows : Q.t array;
}

type outcome = Dispatch of dispatch | Infeasible | Unbounded

let per_bus_loads grid loads =
  match loads with
  | Some v ->
    if Array.length v <> grid.N.n_buses then
      invalid_arg "Dc_opf.solve: loads must be per-bus";
    v
  | None ->
    let v = Array.make grid.N.n_buses Q.zero in
    Array.iter (fun (l : N.load) -> v.(l.N.lbus) <- l.N.existing) grid.N.loads;
    v

let obs_solves = Obs.Counter.make "opf.dc_opf.solves"
let obs_seconds = Obs.Histogram.make "opf.dc_opf.solve.seconds"

let solve_inner ?loads (topo : Grid.Topology.t) =
  let grid = topo.Grid.Topology.grid in
  let b = grid.N.n_buses in
  let loads = per_bus_loads grid loads in
  let lp = Lp.create () in
  (* angle variables; the slack is pinned to zero *)
  let theta =
    Array.init b (fun j ->
        if j = topo.Grid.Topology.slack then
          Lp.add_var ~lo:Q.zero ~hi:Q.zero lp
        else Lp.add_var lp)
  in
  (* generator set-points *)
  let pg =
    Array.map (fun (g : N.gen) -> Lp.add_var ~lo:g.N.pmin ~hi:g.N.pmax lp)
      grid.N.gens
  in
  (* flow expression per mapped line *)
  let flow_exp i =
    let ln = grid.N.lines.(i) in
    L.scale ln.N.admittance
      (L.sub (L.var theta.(ln.N.from_bus)) (L.var theta.(ln.N.to_bus)))
  in
  (* line capacity constraints (both directions) *)
  Array.iteri
    (fun i (ln : N.line) ->
      if topo.Grid.Topology.mapped.(i) then begin
        Lp.add_le lp (flow_exp i) ln.N.capacity;
        Lp.add_ge lp (flow_exp i) (Q.neg ln.N.capacity)
      end)
    grid.N.lines;
  (* nodal balance: sum(in) - sum(out) = Pd_j - Pg_j  (Eqs. 8/9) *)
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
      | Some (k, _) -> L.var pg.(k)
      | None -> L.zero
    in
    Lp.add_eq lp
      (L.add (L.sub inflow outflow) (L.sub gen_term (L.const loads.(j))))
      Q.zero
  done;
  let objective =
    L.sum
      (Array.to_list
         (Array.mapi
            (fun k (g : N.gen) ->
              L.add (L.monomial g.N.beta pg.(k)) (L.const g.N.alpha))
            grid.N.gens))
  in
  match Lp.minimize lp objective with
  | Lp.Infeasible -> Infeasible
  | Lp.Unbounded -> Unbounded
  | Lp.Optimal { objective = cost; values } ->
    let theta_v = Array.map (fun v -> values.(v)) theta in
    let pg_v = Array.map (fun v -> values.(v)) pg in
    let flows = Grid.Powerflow.flow_of_angles topo theta_v in
    Dispatch { cost; pg = pg_v; theta = theta_v; flows }

let solve ?loads topo =
  Obs.Counter.incr obs_solves;
  Obs.Trace.with_span "opf.dc_opf.solve" @@ fun () ->
  Obs.Histogram.time obs_seconds (fun () -> solve_inner ?loads topo)

let base_case grid = solve (Grid.Topology.make grid)
