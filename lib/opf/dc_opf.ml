module Q = Numeric.Rat
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
  let mapped = topo.Grid.Topology.mapped in
  let b = grid.N.n_buses in
  let loads = per_bus_loads grid loads in
  let lp = Certify.create () in
  (* angle variables; the slack is pinned to zero *)
  let theta =
    Array.init b (fun j ->
        if j = topo.Grid.Topology.slack then
          Certify.add_var ~lo:Q.zero ~hi:Q.zero lp
        else Certify.add_var lp)
  in
  (* generator set-points *)
  let pg =
    Array.map (fun (g : N.gen) -> Certify.add_var ~lo:g.N.pmin ~hi:g.N.pmax lp)
      grid.N.gens
  in
  (* flow terms per line, scaled by [sign] *)
  let flow sign i =
    let ln = grid.N.lines.(i) in
    let y = Q.mul sign ln.N.admittance in
    [ (theta.(ln.N.from_bus), y); (theta.(ln.N.to_bus), Q.neg y) ]
  in
  (* line capacity constraints, both directions in one row *)
  Array.iteri
    (fun i (ln : N.line) ->
      if mapped.(i) then
        Certify.add_row lp ~lo:(Q.neg ln.N.capacity) ~hi:ln.N.capacity
          (flow Q.one i))
    grid.N.lines;
  (* nodal balance: sum(in) - sum(out) + Pg_j = Pd_j  (Eqs. 8/9) *)
  for j = 0 to b - 1 do
    let flows sign lines =
      List.concat_map
        (fun i -> if mapped.(i) then flow sign i else [])
        lines
    in
    let gen_term =
      match
        Array.to_list grid.N.gens
        |> List.mapi (fun k (g : N.gen) -> (k, g))
        |> List.find_opt (fun (_, (g : N.gen)) -> g.N.gbus = j)
      with
      | Some (k, _) -> [ (pg.(k), Q.one) ]
      | None -> []
    in
    Certify.add_row lp ~lo:loads.(j) ~hi:loads.(j)
      (flows Q.one (N.lines_in grid j)
      @ flows Q.minus_one (N.lines_out grid j)
      @ gen_term)
  done;
  let objective =
    Array.to_list (Array.mapi (fun k (g : N.gen) -> (pg.(k), g.N.beta)) grid.N.gens)
  in
  let constant =
    Array.fold_left (fun acc (g : N.gen) -> Q.add acc g.N.alpha) Q.zero grid.N.gens
  in
  match Certify.solve_exact lp objective ~constant with
  | Certify.Infeasible -> Infeasible
  | Certify.Unbounded -> Unbounded
  | Certify.Optimal { objective = cost; values; certified = _ } ->
    let theta_v = Array.map (fun v -> values.(v)) theta in
    let pg_v = Array.map (fun v -> values.(v)) pg in
    let flows = Grid.Powerflow.flow_of_angles topo theta_v in
    Dispatch { cost; pg = pg_v; theta = theta_v; flows }

let solve ?loads topo =
  Obs.Counter.incr obs_solves;
  Obs.Trace.with_span "opf.dc_opf.solve" @@ fun () ->
  Obs.Histogram.time obs_seconds (fun () -> solve_inner ?loads topo)

let base_case grid = solve (Grid.Topology.make grid)
