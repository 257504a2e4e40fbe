module Q = Numeric.Rat
module L = Smt.Linexp
module F = Smt.Form
module Solver = Smt.Solver
module N = Grid.Network

type mode = Topology_only | With_state_infection | Ufdi_only

type vars = {
  mode : mode;
  p : int array;
  q : int array;
  k : int array;
  a : int array;
  hb : int array;
  c : int array;
  dtheta : int array;
  dflow_total : int array;
  dbus : int array;
  est_load : int array;
}

let encode_cardinality_with_indicators = ref false

let obs_encodings = Obs.Counter.make "attack.encoder.encodings"
let obs_encode_seconds = Obs.Histogram.make "attack.encoder.encode.seconds"

let encode_inner ?max_topology_changes ?on_assert solver ~mode
    ~(scenario : Grid.Spec.t) ~(base : Base_state.t) =
  let grid = scenario.Grid.Spec.grid in
  let l = N.n_lines grid in
  let b = grid.N.n_buses in
  let m = N.n_meas grid in
  let notify = match on_assert with Some f -> f | None -> fun _ _ -> () in
  (* every asserted formula flows through here with the paper-equation tag
     it encodes, so a lint pass sees the same conjunction the solver does *)
  let assert_t tag f =
    Solver.assert_form solver f;
    notify tag f
  in
  (* bound_real bypasses Form.t inside the solver for efficiency; mirror
     the bounds as a formula for the observer so e.g. an empty Eq. 36
     interval is visible to interval propagation *)
  let bound_t tag ~lo ~hi v =
    Solver.bound_real solver ~lo ~hi v;
    notify tag
      (F.and_ [ F.ge (L.var v) (L.const lo); F.le (L.var v) (L.const hi) ])
  in
  (* f <-> (e <> 0):  f -> (e < 0 \/ e > 0)  and  not f -> e = 0 *)
  let iff_nonzero tag f e =
    assert_t tag (F.implies f (F.or_ [ F.lt e L.zero; F.gt e L.zero ]));
    assert_t tag (F.implies (F.not_ f) (F.eq e L.zero))
  in
  (* 1-based names matching the paper's indexing, so counterexample dumps
     (Solver.named_model) read like its attack vectors *)
  let fresh_bools prefix n =
    Array.init n (fun i ->
        Solver.fresh_bool ~name:(Printf.sprintf "%s%d" prefix (i + 1)) solver)
  in
  let fresh_reals prefix n =
    Array.init n (fun i ->
        Solver.fresh_real ~name:(Printf.sprintf "%s%d" prefix (i + 1)) solver)
  in
  let p = fresh_bools "p" l and q = fresh_bools "q" l and k = fresh_bools "k" l in
  let a = fresh_bools "a" m and hb = fresh_bools "h" b in
  let with_states = mode <> Topology_only in
  let c = if with_states then fresh_bools "c" b else [||] in
  let dtheta = if with_states then fresh_reals "dtheta" b else [||] in
  (* topology-change flow deltas are always present *)
  let dflow_topo = fresh_reals "dF" l in
  let dflow_state = if with_states then fresh_reals "dFstate" l else [||] in
  let dflow_total = if with_states then fresh_reals "dFtotal" l else dflow_topo in
  let dbus = fresh_reals "dbus" b in
  let est_load = fresh_reals "estload" b in
  let bp i = F.bvar p.(i)
  and bq i = F.bvar q.(i)
  and bk i = F.bvar k.(i) in
  (* per-line structural constraints *)
  Array.iteri
    (fun i (ln : N.line) ->
      let u = ln.N.in_true_topology in
      let excludable =
        u && (not ln.N.fixed) && (not ln.N.status_secured) && ln.N.status_alterable
      in
      let includable =
        (not u) && (not ln.N.status_secured) && ln.N.status_alterable
      in
      (* Eqs. 11/12 with the attacker-capability conjunct; with constant
         line attributes they reduce to forcing impossible attacks false *)
      if not excludable then assert_t "eq11" (F.not_ (bp i));
      if not includable then assert_t "eq12" (F.not_ (bq i));
      (* a line cannot be both excluded and included *)
      assert_t "eq11-12" (F.or_ [ F.not_ (bp i); F.not_ (bq i) ]);
      (* Eq. 10 as a definition of k_i *)
      if u then assert_t "eq10" (F.iff (bk i) (F.not_ (bp i)))
      else assert_t "eq10" (F.iff (bk i) (bq i));
      (* Eqs. 13/14/15: topology-change component of the flow delta *)
      let dfl = L.var dflow_topo.(i) in
      let base_flow = L.const base.Base_state.flows.(i) in
      assert_t "eq13" (F.implies (bp i) (F.eq dfl (L.neg base_flow)));
      assert_t "eq14" (F.implies (bq i) (F.eq dfl base_flow));
      assert_t "eq15"
        (F.implies
           (F.and_ [ F.not_ (bp i); F.not_ (bq i) ])
           (F.eq dfl L.zero)))
    grid.N.lines;
  (* state-infection constraints (Section III-D) *)
  if with_states then begin
    (* the slack/reference state cannot shift *)
    bound_t "slack-ref" ~lo:Q.zero ~hi:Q.zero
      dtheta.(base.Base_state.topo.Grid.Topology.slack);
    (* modest sanity range helps the simplex without constraining attacks:
       load bounds below are the real limiter *)
    Array.iter
      (fun v ->
        bound_t "dtheta-range" ~lo:(Q.of_int (-10)) ~hi:(Q.of_int 10) v)
      dtheta;
    Array.iteri
      (fun i (ln : N.line) ->
        let dbar = L.var dflow_state.(i) in
        let angle_delta =
          L.scale ln.N.admittance
            (L.sub (L.var dtheta.(ln.N.from_bus)) (L.var dtheta.(ln.N.to_bus)))
        in
        (* Eq. 24 / Eq. 25 *)
        assert_t "eq24" (F.implies (bk i) (F.eq dbar angle_delta));
        assert_t "eq25" (F.implies (F.not_ (bk i)) (F.eq dbar L.zero));
        (* Eq. 27 *)
        assert_t "eq27"
          (F.eq (L.var dflow_total.(i)) (L.add (L.var dflow_topo.(i)) dbar)))
      grid.N.lines;
    (* Eq. 26 (as a definition, so c counts infected states exactly) *)
    Array.iteri
      (fun j cj ->
        if j = base.Base_state.topo.Grid.Topology.slack then
          assert_t "eq26" (F.not_ (F.bvar cj))
        else iff_nonzero "eq26" (F.bvar cj) (L.var dtheta.(j)))
      c
  end;
  (* Eqs. 16/28: bus-consumption deltas from line-flow deltas *)
  let bus_delta_tag = if with_states then "eq28" else "eq16" in
  for j = 0 to b - 1 do
    let inflow =
      L.sum (List.map (fun i -> L.var dflow_total.(i)) (N.lines_in grid j))
    in
    let outflow =
      L.sum (List.map (fun i -> L.var dflow_total.(i)) (N.lines_out grid j))
    in
    assert_t bus_delta_tag (F.eq (L.var dbus.(j)) (L.sub inflow outflow))
  done;
  (* Eqs. 17/18 (29 with states): a_i <-> taken and the quantity changed *)
  let flow_meas_tag = if with_states then "eq29" else "eq17" in
  let inj_meas_tag = if with_states then "eq29" else "eq18" in
  for i = 0 to l - 1 do
    let delta = L.var dflow_total.(i) in
    let handle meas_idx =
      if grid.N.meas.(meas_idx).N.taken then
        iff_nonzero flow_meas_tag (F.bvar a.(meas_idx)) delta
      else assert_t flow_meas_tag (F.not_ (F.bvar a.(meas_idx)))
    in
    handle (N.meas_fwd grid i);
    handle (N.meas_bwd grid i);
    (* Eq. 19: unknown admittance blocks computing the required injection *)
    let ln = grid.N.lines.(i) in
    let fwd_taken = grid.N.meas.(N.meas_fwd grid i).N.taken in
    let bwd_taken = grid.N.meas.(N.meas_bwd grid i).N.taken in
    if (not ln.N.known) && (fwd_taken || bwd_taken) then
      assert_t "eq19" (F.eq delta L.zero)
  done;
  for j = 0 to b - 1 do
    let mi = N.meas_inj grid j in
    if grid.N.meas.(mi).N.taken then
      iff_nonzero inj_meas_tag (F.bvar a.(mi)) (L.var dbus.(j))
    else assert_t inj_meas_tag (F.not_ (F.bvar a.(mi)))
  done;
  (* Eq. 20: accessibility and security of measurements *)
  Array.iteri
    (fun i (ms : N.meas) ->
      if not (ms.N.accessible && not ms.N.secured) then
        assert_t "eq20" (F.not_ (F.bvar a.(i))))
    grid.N.meas;
  (* Eq. 21: altered measurements mark their bus as compromised *)
  for i = 0 to m - 1 do
    assert_t "eq21" (F.implies (F.bvar a.(i)) (F.bvar hb.(N.meas_bus grid i)))
  done;
  (* Eq. 22 + measurement budget.  The sequential-counter clauses are
     asserted inside the solver and are not mirrored to the observer. *)
  let card k fs =
    if !encode_cardinality_with_indicators then
      Solver.assert_at_most_indicator solver k fs
    else Solver.assert_at_most solver k fs
  in
  if scenario.Grid.Spec.max_buses < b then
    card scenario.Grid.Spec.max_buses
      (Array.to_list (Array.map F.bvar hb));
  if scenario.Grid.Spec.max_meas < m then
    card scenario.Grid.Spec.max_meas (Array.to_list (Array.map F.bvar a));
  (* load consistency: the operator's estimated load moves with the bus
     consumption delta (Section III-E) and stays within plausible bounds
     (Eq. 36); buses without a load must not appear to gain one *)
  for j = 0 to b - 1 do
    assert_t "load-consistency"
      (F.eq (L.var est_load.(j))
         (L.add (L.const base.Base_state.load.(j)) (L.var dbus.(j))));
    match N.load_at grid j with
    | Some ld -> bound_t "eq36" ~lo:ld.N.lmin ~hi:ld.N.lmax est_load.(j)
    | None -> bound_t "eq36" ~lo:Q.zero ~hi:Q.zero est_load.(j)
  done;
  (* optional restriction to few simultaneous topology changes (the
     paper's evaluation uses single-line attacks on the larger systems) *)
  let topo_attack = Array.to_list (Array.map F.bvar p) @ Array.to_list (Array.map F.bvar q) in
  (match max_topology_changes with
  | Some n when n < 2 * l -> card n topo_attack
  | _ -> ());
  (match mode with
  | Topology_only -> assert_t "attack-nonempty" (F.or_ topo_attack)
  | With_state_infection ->
    assert_t "attack-nonempty"
      (F.or_ (topo_attack @ Array.to_list (Array.map F.bvar c)))
  | Ufdi_only ->
    Array.iter (fun v -> assert_t "ufdi-topology-intact" (F.not_ (F.bvar v))) p;
    Array.iter (fun v -> assert_t "ufdi-topology-intact" (F.not_ (F.bvar v))) q;
    assert_t "attack-nonempty" (F.or_ (Array.to_list (Array.map F.bvar c))));
  {
    mode;
    p;
    q;
    k;
    a;
    hb;
    c;
    dtheta;
    dflow_total;
    dbus;
    est_load;
  }

let encode ?max_topology_changes ?on_assert solver ~mode ~scenario ~base =
  Obs.Counter.incr obs_encodings;
  let mode_str =
    match mode with
    | Topology_only -> "topo"
    | With_state_infection -> "state"
    | Ufdi_only -> "ufdi"
  in
  (* when tracing, mark every asserted paper equation with its tag so the
     timeline shows which constraint family dominated encoding *)
  let on_assert =
    if not (Obs.Trace.enabled ()) then on_assert
    else begin
      let notify = match on_assert with Some f -> f | None -> fun _ _ -> () in
      Some
        (fun tag f ->
          Obs.Trace.instant "encode.assert" ~args:[ ("tag", tag) ];
          notify tag f)
    end
  in
  Obs.Trace.with_span "attack.encode" ~args:[ ("mode", mode_str) ]
  @@ fun () ->
  Obs.Histogram.time obs_encode_seconds (fun () ->
      encode_inner ?max_topology_changes ?on_assert solver ~mode ~scenario
        ~base)
