module Q = Numeric.Rat
module N = Grid.Network

type violation = {
  outage : int;
  overloaded : int;
  post_flow : float;
  rating : float;
}

(* outages worth considering: mapped lines whose removal keeps the system
   connected (radial outages island the grid and have no LODF) *)
let credible_outages (topo : Grid.Topology.t) factors =
  let grid = topo.Grid.Topology.grid in
  List.filter
    (fun i ->
      topo.Grid.Topology.mapped.(i)
      && not (Float.is_nan (Factors.lodf factors ~outage:i (if i = 0 then 1 else 0))))
    (List.init (N.n_lines grid) Fun.id)

(* Screening one outage is an independent read of the (immutable) factor
   matrices, so the outage list is fanned out over a Pool when jobs >= 2.
   Pool.map keeps outage order, and violations within one outage are
   collected in ascending line order, so the result list is identical to
   the sequential scan's. *)
let screen ?(emergency_factor = 1.2) ?(jobs = 1) (topo : Grid.Topology.t)
    ~base_flows =
  let grid = topo.Grid.Topology.grid in
  let factors = Factors.make topo in
  let screen_outage outage =
    let post = Factors.flows_after_outage factors ~base_flows ~outage in
    let violations = ref [] in
    Array.iteri
      (fun i f ->
        if i <> outage && topo.Grid.Topology.mapped.(i) then begin
          let rating =
            emergency_factor *. Q.to_float grid.N.lines.(i).N.capacity
          in
          if Float.abs f > rating +. 1e-9 then
            violations :=
              { outage; overloaded = i; post_flow = f; rating } :: !violations
        end)
      post;
    List.rev !violations
  in
  Pool.with_pool ~jobs (fun pool ->
      Pool.map pool ~f:screen_outage (credible_outages topo factors))
  |> List.concat

let is_n1_secure ?emergency_factor ?jobs topo ~base_flows =
  screen ?emergency_factor ?jobs topo ~base_flows = []

(* Each post-contingency limit is the float row ptdf_row i + d * ptdf_row k
   (d the outage's LODF onto line i) at the emergency rating, rounded and
   screened like a base row, so the whole LP is certified. *)
let sc_opf ?(emergency_factor = 1.2) ?contingencies ?loads
    (topo : Grid.Topology.t) =
  let grid = topo.Grid.Topology.grid in
  let emergency = Q.of_float emergency_factor in
  let rating =
    Array.map (fun (ln : N.line) -> Q.mul emergency ln.N.capacity) grid.N.lines
  in
  Float_opf.solve_with ?loads topo ~extra:(fun factors limit ->
      let contingencies =
        match contingencies with
        | Some cs -> cs
        | None -> credible_outages topo factors
      in
      List.iter
        (fun k ->
          let row_k = Factors.ptdf_row factors ~line:k in
          Array.iteri
            (fun i cap ->
              if i <> k && topo.Grid.Topology.mapped.(i) then begin
                let d = Factors.lodf factors ~outage:k i in
                if Float.abs d > 1e-6 then
                  limit
                    (Array.map2
                       (fun a c -> a +. (d *. c))
                       (Factors.ptdf_row factors ~line:i)
                       row_k)
                    ~cap
              end)
            rating)
        contingencies)
