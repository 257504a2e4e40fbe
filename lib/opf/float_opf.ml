(* PTDF-formulation OPF on the certified float path: the LP is posed over
   exact rationals (float PTDFs rounded to 1e-6 steps), solved by the
   float simplex, and the verdict is proved or repaired by [Certify] — so
   the reported cost and dispatch are exact optima of the stated problem
   at every system size.  This is the one place a shift-factor OPF LP is
   built: the base OPF, its exact-simplex reference and the
   security-constrained OPF of [Contingency] all pose their rows here.

   The rounding is what keeps the exact side scalable: full dyadic images
   of the floats ([Rat.of_float], denominators ~2^52) make every exact
   operation downstream — constraint screening, the certificate's basis
   refactorization, the reported cost — grow thousand-digit rationals at
   hundreds of buses.  A 1e-6 step keeps them small, and the certificate
   is exact for the stated (rounded) LP either way; the float PTDFs were
   already approximations of the true factors. *)

module Q = Numeric.Rat
module N = Grid.Network

(* |PTDF| <= ~2, so the scaled value fits a native int comfortably *)
let q_of_ptdf f = Q.of_ints (int_of_float (Float.round (f *. 1e6)) ) 1_000_000

let obs_solves = Obs.Counter.make "opf.float_opf.solves"
let obs_seconds = Obs.Histogram.make "opf.float_opf.solve.seconds"

(* Adds [-cap <= row . (pg - loads) <= cap] for a per-bus float
   shift-factor row, each entry rounded to the 1e-6 step; generation
   enters through its bus, loads as an exact constant offset. *)
let add_flow_limit qp (grid : N.t) pg loads row ~cap =
  let ptdf j = q_of_ptdf row.(j) in
  let gen_terms =
    Array.to_list
      (Array.mapi (fun k (g : N.gen) -> (pg.(k), ptdf g.N.gbus)) grid.N.gens)
  in
  let load_part = ref Q.zero in
  Array.iteri
    (fun j l ->
      if not (Q.is_zero l) then
        load_part := Q.add !load_part (Q.mul (ptdf j) l))
    loads;
  (* exact constraint screening: a side is dropped only when the
     generation box provably keeps the flow inside the limit, so the
     reduced LP has the same feasible set *)
  let lo_flow = ref (Q.neg !load_part) and hi_flow = ref (Q.neg !load_part) in
  List.iteri
    (fun k (_, c) ->
      let g = grid.N.gens.(k) in
      let a = Q.mul c g.N.pmin and bb = Q.mul c g.N.pmax in
      lo_flow := Q.add !lo_flow (Q.min a bb);
      hi_flow := Q.add !hi_flow (Q.max a bb))
    gen_terms;
  if Q.( > ) !hi_flow cap then
    Certify.add_row qp ~hi:(Q.add cap !load_part) gen_terms;
  if Q.( < ) !lo_flow (Q.neg cap) then
    Certify.add_row qp ~lo:(Q.add (Q.neg cap) !load_part) gen_terms

(* angles and flows from a float power flow at the exact optimum;
   [Rat.of_float] keeps the recovered values exactly as computed rather
   than rounding them *)
let recover (topo : Grid.Topology.t) loads ~cost ~pg =
  let grid = topo.Grid.Topology.grid in
  let b = grid.N.n_buses in
  let gen_bus = Array.map Q.to_float (N.bus_generation grid pg) in
  let loads_f = Array.map Q.to_float loads in
  let q_exact f = if Float.is_finite f then Q.of_float f else Q.zero in
  match Grid.Powerflow.solve_float topo ~gen:gen_bus ~load:loads_f with
  | Ok (theta_f, flows_f) ->
    Dc_opf.Dispatch
      {
        cost;
        pg;
        theta = Array.map q_exact theta_f;
        flows = Array.map q_exact flows_f;
      }
  | Error _ ->
    Dc_opf.Dispatch
      {
        cost;
        pg;
        theta = Array.make b Q.zero;
        flows = Array.make (N.n_lines grid) Q.zero;
      }

(* The one shift-factor OPF LP: generator box, proportional warm start,
   balance row and every mapped line's base-case limit, then whatever
   rows [extra] adds through the same [add_flow_limit], handed to
   [solve] (certified or exact-only). *)
let build ?loads ~extra ~solve (topo : Grid.Topology.t) =
  let grid = topo.Grid.Topology.grid in
  let loads = match loads with Some v -> v | None -> N.bus_demand grid in
  match Factors.make topo with
  | exception Failure _ -> Dc_opf.Infeasible
  | factors ->
    let qp = Certify.create () in
    let pg =
      Array.map
        (fun (g : N.gen) -> Certify.add_var ~lo:g.N.pmin ~hi:g.N.pmax qp)
        grid.N.gens
    in
    let total_load = Array.fold_left Q.add Q.zero loads in
    (* warm start at the balanced proportional dispatch: phase I then only
       repairs the few lines the optimum actually stresses *)
    let cap_total =
      Array.fold_left (fun acc (g : N.gen) -> Q.add acc g.N.pmax) Q.zero
        grid.N.gens
    in
    if Q.sign cap_total > 0 then
      Array.iteri
        (fun k (g : N.gen) ->
          Certify.set_initial qp pg.(k)
            (Q.div (Q.mul total_load g.N.pmax) cap_total))
        grid.N.gens;
    Certify.add_row qp ~lo:total_load ~hi:total_load
      (Array.to_list (Array.map (fun v -> (v, Q.one)) pg));
    let limit = add_flow_limit qp grid pg loads in
    Array.iteri
      (fun i (ln : N.line) ->
        (* one cached PTDF row per screened line (a single transposed
           sparse solve) *)
        if topo.Grid.Topology.mapped.(i) then
          limit (Factors.ptdf_row factors ~line:i) ~cap:ln.N.capacity)
      grid.N.lines;
    extra factors limit;
    let obj, constant = Dc_opf.generation_cost grid pg in
    (match solve qp obj ~constant with
    | Certify.Infeasible -> Dc_opf.Infeasible
    | Certify.Unbounded -> Dc_opf.Unbounded
    | Certify.Optimal { objective; values; certified = _ } ->
      recover topo loads ~cost:objective
        ~pg:(Array.map (fun v -> values.(v)) pg))

let no_extra _ _ = ()
let certified = Certify.minimize ?mangle_cert:None

let solve ?loads topo =
  Obs.Counter.incr obs_solves;
  Obs.Histogram.time obs_seconds (fun () ->
      build ?loads ~extra:no_extra ~solve:certified topo)

let solve_exact topo = build ~extra:no_extra ~solve:Certify.solve_exact topo

let solve_with ?loads ~extra topo =
  build ?loads ~extra ~solve:certified topo
