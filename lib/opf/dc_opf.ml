module Q = Numeric.Rat
module N = Grid.Network

type dispatch = {
  cost : Q.t;
  pg : Q.t array;
  theta : Q.t array;
  flows : Q.t array;
}

type outcome = Dispatch of dispatch | Infeasible | Unbounded
type row = { lo : Q.t option; hi : Q.t option; terms : (int * Q.t) list }

type statement = {
  bounds : (Q.t option * Q.t option) array;
  pg : int array;
  rows : row list;
  loads : Q.t array;
  objective : (int * Q.t) list;
  constant : Q.t;
}

let generation_cost grid pg =
  ( Array.to_list (Array.mapi (fun k (g : N.gen) -> (pg.(k), g.N.beta)) grid.N.gens),
    Array.fold_left (fun acc (g : N.gen) -> Q.add acc g.N.alpha) Q.zero
      grid.N.gens )

let statement ?loads (topo : Grid.Topology.t) =
  let grid = topo.Grid.Topology.grid in
  let mapped = topo.Grid.Topology.mapped in
  let b = grid.N.n_buses in
  let loads =
    match loads with
    | None -> N.bus_demand grid
    | Some v when Array.length v = b -> v
    | Some _ -> invalid_arg "Dc_opf.statement: loads must be per-bus"
  in
  (* variables: bus j's angle is j, with the slack's pinned to zero;
     generator k's set-point is b + k, boxed by its limits (Eq. 31) *)
  let bounds =
    Array.append
      (Array.init b (fun j ->
           if j = topo.Grid.Topology.slack then (Some Q.zero, Some Q.zero)
           else (None, None)))
      (Array.map (fun (g : N.gen) -> (Some g.N.pmin, Some g.N.pmax)) grid.N.gens)
  in
  let pg = Array.mapi (fun k _ -> b + k) grid.N.gens in
  (* flow terms per line, scaled by [sign]; only mapped lines enter a row
     (Eq. 32's k_i is a constant per topology) *)
  let flow sign i =
    let ln = grid.N.lines.(i) in
    let y = Q.mul sign ln.N.admittance in
    [ (ln.N.from_bus, y); (ln.N.to_bus, Q.neg y) ]
  in
  (* line capacities, both directions in one row (Eq. 34) *)
  let capacity =
    Array.to_seqi grid.N.lines
    |> Seq.filter_map (fun (i, (ln : N.line)) ->
           if mapped.(i) then
             let cap = ln.N.capacity in
             Some { lo = Some (Q.neg cap); hi = Some cap; terms = flow Q.one i }
           else None)
    |> List.of_seq
  in
  (* nodal balance: sum(in) - sum(out) + every Pg at j = Pd_j (Eq. 33) *)
  let balance j =
    let flows sign lines =
      List.concat_map (fun i -> if mapped.(i) then flow sign i else []) lines
    in
    let gen_terms =
      Array.to_seqi grid.N.gens
      |> Seq.filter_map (fun (k, (g : N.gen)) ->
             if g.N.gbus = j then Some (pg.(k), Q.one) else None)
      |> List.of_seq
    in
    {
      lo = Some loads.(j);
      hi = Some loads.(j);
      terms =
        flows Q.one (N.lines_in grid j)
        @ flows Q.minus_one (N.lines_out grid j)
        @ gen_terms;
    }
  in
  let objective, constant = generation_cost grid pg in
  { bounds; pg; rows = capacity @ List.init b balance; loads; objective; constant }

let obs_solves = Obs.Counter.make "opf.dc_opf.solves"
let obs_seconds = Obs.Histogram.make "opf.dc_opf.solve.seconds"

let solve_inner ?loads (topo : Grid.Topology.t) =
  let st = statement ?loads topo in
  let lp = Certify.create () in
  let var = Array.map (fun (lo, hi) -> Certify.add_var ?lo ?hi lp) st.bounds in
  let terms = List.map (fun (v, c) -> (var.(v), c)) in
  List.iter (fun r -> Certify.add_row lp ?lo:r.lo ?hi:r.hi (terms r.terms)) st.rows;
  match Certify.solve_exact lp (terms st.objective) ~constant:st.constant with
  | Certify.Infeasible -> Infeasible
  | Certify.Unbounded -> Unbounded
  | Certify.Optimal { objective = cost; values; certified = _ } ->
    let value v = values.(var.(v)) in
    let theta = Array.init topo.Grid.Topology.grid.N.n_buses value in
    let flows = Grid.Powerflow.flow_of_angles topo theta in
    Dispatch { cost; pg = Array.map value st.pg; theta; flows }

let solve ?loads topo =
  Obs.Counter.incr obs_solves;
  Obs.Trace.with_span "opf.dc_opf.solve" @@ fun () ->
  Obs.Histogram.time obs_seconds (fun () -> solve_inner ?loads topo)

let base_case grid = solve (Grid.Topology.make grid)
