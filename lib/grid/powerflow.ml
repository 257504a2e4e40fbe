module Q = Numeric.Rat
module Sf = Linalg.Sparse.F
module Sq = Linalg.Sparse.Q

type solution = {
  theta : Q.t array;
  flows : Q.t array;
  consumption : Q.t array;
}

let flow_of_angles (t : Topology.t) theta =
  Array.mapi
    (fun i (ln : Network.line) ->
      if t.Topology.mapped.(i) then
        Q.mul ln.Network.admittance
          (Q.sub theta.(ln.Network.from_bus) theta.(ln.Network.to_bus))
      else Q.zero)
    t.Topology.grid.Network.lines

let consumption_of_flows (t : Topology.t) flows =
  let b = t.Topology.grid.Network.n_buses in
  let cons = Array.make b Q.zero in
  Array.iteri
    (fun i (ln : Network.line) ->
      cons.(ln.Network.to_bus) <- Q.add cons.(ln.Network.to_bus) flows.(i);
      cons.(ln.Network.from_bus) <- Q.sub cons.(ln.Network.from_bus) flows.(i))
    t.Topology.grid.Network.lines;
  cons

let solve_float (t : Topology.t) ~gen ~load =
  let b = t.Topology.grid.Network.n_buses in
  if Array.length gen <> b || Array.length load <> b then
    invalid_arg "Powerflow.solve_float: per-bus vectors required";
  let slack = t.Topology.slack in
  let idx = Array.of_list (List.filter (fun j -> j <> slack) (List.init b Fun.id)) in
  let rhs = Array.map (fun j -> gen.(j) -. load.(j)) idx in
  let reduced =
    Sf.of_triplets ~rows:(b - 1) ~cols:(b - 1) (Topology.b_reduced_triplets t)
  in
  match Sf.solve (Sf.lu_factor reduced) rhs with
  | exception Sf.Singular -> Error "singular susceptance matrix (islanded?)"
  | x ->
    let theta = Array.make b 0.0 in
    Array.iteri (fun r j -> theta.(j) <- x.(r)) idx;
    let flows =
      Array.mapi
        (fun i (ln : Network.line) ->
          if t.Topology.mapped.(i) then
            Q.to_float ln.Network.admittance
            *. (theta.(ln.Network.from_bus) -. theta.(ln.Network.to_bus))
          else 0.0)
        t.Topology.grid.Network.lines
    in
    Ok (theta, flows)

let solve (t : Topology.t) ~gen ~load =
  let b = t.Topology.grid.Network.n_buses in
  if Array.length gen <> b || Array.length load <> b then
    invalid_arg "Powerflow.solve: per-bus vectors required";
  let net j = Q.sub gen.(j) load.(j) in
  let imbalance =
    List.fold_left (fun acc j -> Q.add acc (net j)) Q.zero (List.init b Fun.id)
  in
  if not (Q.is_zero imbalance) then
    Error
      (Format.asprintf "generation/load imbalance: %a" Q.pp imbalance)
  else begin
    (* reduced susceptance system, assembled and factored sparsely by the
       exact-rational sparse LU *)
    let slack = t.Topology.slack in
    let idx = Array.of_list (List.filter (fun j -> j <> slack) (List.init b Fun.id)) in
    let n = b - 1 in
    let bm = Sq.of_triplets ~rows:n ~cols:n (Topology.b_reduced_qtriplets t) in
    let rhs = Array.map (fun j -> net j) idx in
    match Sq.solve (Sq.lu_factor bm) rhs with
    | exception Sq.Singular -> Error "singular susceptance matrix (islanded?)"
    | reduced ->
      let theta = Array.make b Q.zero in
      Array.iteri (fun r j -> theta.(j) <- reduced.(r)) idx;
      let flows = flow_of_angles t theta in
      let consumption = consumption_of_flows t flows in
      Ok { theta; flows; consumption }
  end
