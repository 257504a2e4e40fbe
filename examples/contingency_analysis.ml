(* N-1 contingency analysis and security-constrained dispatch — the EMS
   stage the paper's Section III-E mentions running alongside OPF, and a
   second angle on why topology integrity matters: a poisoned topology
   also corrupts the contingency assessment.

   Run with: dune exec examples/contingency_analysis.exe *)

module Q = Numeric.Rat
module N = Grid.Network
module T = Grid.Topology

let qs v = Q.to_decimal_string ~digits:2 v

let report ~emergency_factor name topo outcome =
  match outcome with
  | Opf.Dc_opf.Dispatch d ->
    Format.printf "@.%s: dispatch cost $%s@." name (qs d.Opf.Dc_opf.cost);
    let base_flows = Array.map Q.to_float d.Opf.Dc_opf.flows in
    (match Opf.Contingency.screen ~emergency_factor topo ~base_flows with
    | [] -> Format.printf "  N-1 secure: no credible outage overloads a line@."
    | violations ->
      List.iter
        (fun (v : Opf.Contingency.violation) ->
          Format.printf
            "  outage of line %d -> line %d at %.4f pu (emergency rating %.4f)@."
            (v.Opf.Contingency.outage + 1)
            (v.Opf.Contingency.overloaded + 1)
            v.Opf.Contingency.post_flow v.Opf.Contingency.rating)
        violations);
    Some d
  | Opf.Dc_opf.Infeasible ->
    Format.printf "@.%s: infeasible@." name;
    None
  | Opf.Dc_opf.Unbounded ->
    Format.printf "@.%s: unbounded@." name;
    None

let () =
  let grid = (Grid.Test_systems.ieee 14).Grid.Spec.grid in
  let topo = T.make grid in

  (* 1. the cost-optimal dispatch usually fails N-1 screening *)
  ignore
    (report ~emergency_factor:1.2 "economic dispatch (plain OPF)" topo
       (Opf.Float_opf.solve topo));

  (* 2. the security-constrained OPF pays a premium for N-1 security: on
     the 5-bus system at 2x emergency ratings the plain dispatch costs
     $1474.68 and the secure one $1552.42 (IEEE-14 has no secure dispatch
     below 5.6x) *)
  let five = Grid.Test_systems.five_bus () in
  let true_topo = T.make five in
  (match
     ( report ~emergency_factor:2.0 "5-bus economic dispatch (plain OPF)"
         true_topo (Opf.Float_opf.solve true_topo),
       report ~emergency_factor:2.0
         "5-bus security-constrained OPF (emergency rating 2.0x)" true_topo
         (Opf.Contingency.sc_opf ~emergency_factor:2.0 true_topo) )
   with
  | Some plain, Some secure ->
    Format.printf "@.security premium: $%s/h@."
      (qs (Q.sub secure.Opf.Dc_opf.cost plain.Opf.Dc_opf.cost))
  | _ -> ());

  (* 3. a poisoned topology corrupts the assessment: with line 6 of the
     5-bus system excluded from the model, the operator's screening runs
     on the wrong network *)
  let mapped = N.true_topology five in
  mapped.(5) <- false;
  let poisoned = T.make ~mapped five in
  match Opf.Dc_opf.base_case five with
  | Opf.Dc_opf.Dispatch d ->
    let flows = Array.map Q.to_float d.Opf.Dc_opf.flows in
    let seen = List.length (Opf.Contingency.screen poisoned ~base_flows:flows) in
    let real = List.length (Opf.Contingency.screen true_topo ~base_flows:flows) in
    Format.printf
      "@.5-bus contingency check: the true model shows %d post-outage \
       overload(s); the poisoned model (line 6 unmapped) shows %d — the \
       operator's security picture is wrong too.@."
      real seen
  | _ -> ()
