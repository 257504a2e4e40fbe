(* Tests for countermeasure synthesis and N-1 contingency analysis. *)

module Q = Numeric.Rat
module N = Grid.Network
module T = Grid.Topology
module TS = Grid.Test_systems
module D = Topoguard.Defense
module I = Topoguard.Impact
module Enc = Attack.Encoder

let cs_base () =
  match
    Attack.Base_state.of_dispatch (TS.five_bus ())
      ~gen:(TS.case_study_base_dispatch ())
  with
  | Ok b -> b
  | Error e -> failwith e

(* run an SC-OPF solve and require that its certificate validated *)
let certified f =
  let ok = Obs.Counter.make "lp.certify.ok" in
  let before = Obs.Counter.get ok in
  let r = f () in
  Alcotest.(check bool) "lp.certify.ok moved" true
    (Obs.Counter.get ok > before);
  r

let defense_tests =
  [
    Alcotest.test_case "greedy plan blocks case study 1" `Quick (fun () ->
        let scenario = TS.case_study_1 () in
        let base = cs_base () in
        match D.synthesize_greedy ~scenario ~base () with
        | Error e -> Alcotest.fail e
        | Ok plan ->
          Alcotest.(check bool) "no residual" false plan.D.residual_attack;
          Alcotest.(check bool) "verified" true (D.verify ~scenario ~base plan));
    Alcotest.test_case "CS1 needs exactly one protection (line 6 status)"
      `Quick (fun () ->
        let scenario = TS.case_study_1 () in
        let base = cs_base () in
        match D.synthesize_minimal ~scenario ~base () with
        | Error e -> Alcotest.fail e
        | Ok None -> Alcotest.fail "expected a minimal plan"
        | Ok (Some plan) ->
          Alcotest.(check int) "one asset" 1 (List.length plan.D.assets);
          (match plan.D.assets with
          | [ D.Secure_line_status 5 ] -> ()
          | _ -> Alcotest.fail "expected line 6 status"));
    Alcotest.test_case "greedy plan blocks case study 2" `Quick (fun () ->
        let scenario = TS.case_study_2 () in
        let base = cs_base () in
        let config = { I.default_config with I.mode = Enc.With_state_infection } in
        match D.synthesize_greedy ~config ~scenario ~base () with
        | Error e -> Alcotest.fail e
        | Ok plan ->
          Alcotest.(check bool) "no residual" false plan.D.residual_attack;
          Alcotest.(check bool) "verified" true
            (D.verify ~config ~scenario ~base plan));
    Alcotest.test_case "apply flips the right flags" `Quick (fun () ->
        let grid = TS.five_bus () in
        let g1 = D.apply grid (D.Secure_line_status 5) in
        Alcotest.(check bool) "line secured" true
          g1.N.lines.(5).N.status_secured;
        let g2 = D.apply grid (D.Secure_measurement 3) in
        Alcotest.(check bool) "meas secured" true g2.N.meas.(3).N.secured;
        (* original untouched *)
        Alcotest.(check bool) "pure" false grid.N.lines.(5).N.status_secured);
    Alcotest.test_case "empty plan verifies only when no attack exists"
      `Quick (fun () ->
        let scenario = TS.case_study_1 () in
        let base = cs_base () in
        let nothing = { D.assets = []; rounds = 0; residual_attack = false } in
        Alcotest.(check bool) "attack still possible" false
          (D.verify ~scenario ~base nothing));
  ]

let contingency_tests =
  [
    Alcotest.test_case "screening flags outages that overload" `Quick
      (fun () ->
        (* the base-case OPF dispatch is N-0 feasible; outaging line 1
           (cap 0.15, heavily loaded) must push flow onto line 2 *)
        let grid = TS.five_bus () in
        let topo = T.make grid in
        match Opf.Dc_opf.base_case grid with
        | Opf.Dc_opf.Dispatch d ->
          let base_flows = Array.map Q.to_float d.Opf.Dc_opf.flows in
          let violations = Opf.Contingency.screen topo ~base_flows in
          Alcotest.(check bool) "some violation exists" true (violations <> []);
          List.iter
            (fun (v : Opf.Contingency.violation) ->
              Alcotest.(check bool) "flow exceeds rating" true
                (Float.abs v.Opf.Contingency.post_flow
                > v.Opf.Contingency.rating))
            violations
        | _ -> Alcotest.fail "base OPF failed");
    Alcotest.test_case "huge emergency ratings are always secure" `Quick
      (fun () ->
        let grid = TS.five_bus () in
        let topo = T.make grid in
        match Opf.Dc_opf.base_case grid with
        | Opf.Dc_opf.Dispatch d ->
          let base_flows = Array.map Q.to_float d.Opf.Dc_opf.flows in
          Alcotest.(check bool) "secure" true
            (Opf.Contingency.is_n1_secure ~emergency_factor:100.0 topo
               ~base_flows)
        | _ -> Alcotest.fail "base OPF failed");
    Alcotest.test_case "SC-OPF costs at least the plain OPF" `Quick (fun () ->
        let topo = T.make (TS.five_bus ()) in
        let sc () = Opf.Contingency.sc_opf ~emergency_factor:2.0 topo in
        match (Opf.Float_opf.solve topo, certified sc) with
        | Opf.Dc_opf.Dispatch plain, Opf.Dc_opf.Dispatch secure ->
          (* the same LP plus post-contingency rows: both optima are exact,
             and at 2x ratings the contingency rows bind *)
          Alcotest.(check string) "plain cost" "1474.68"
            (Q.to_decimal_string ~digits:2 plain.Opf.Dc_opf.cost);
          Alcotest.(check string) "secure cost" "1552.42"
            (Q.to_decimal_string ~digits:2 secure.Opf.Dc_opf.cost);
          Alcotest.(check bool) "security premium > 0" true
            (Q.( > ) secure.Opf.Dc_opf.cost plain.Opf.Dc_opf.cost)
        | _, Opf.Dc_opf.Infeasible -> Alcotest.fail "SC-OPF infeasible"
        | _ -> Alcotest.fail "unexpected outcome");
    Alcotest.test_case "SC-OPF dispatch passes its own screening" `Quick
      (fun () ->
        let topo = T.make (TS.five_bus ()) in
        let sc () = Opf.Contingency.sc_opf ~emergency_factor:2.0 topo in
        match certified sc with
        | Opf.Dc_opf.Dispatch d ->
          let base_flows = Array.map Q.to_float d.Opf.Dc_opf.flows in
          (* the LODF linearisation is exact in the DC model: the binding
             post-contingency flow sits at its rating to within float
             noise, inside the screen's tolerance *)
          Alcotest.(check int) "no post-outage violation" 0
            (List.length
               (Opf.Contingency.screen ~emergency_factor:2.0 topo ~base_flows))
        | Opf.Dc_opf.Infeasible -> Alcotest.fail "SC-OPF infeasible"
        | Opf.Dc_opf.Unbounded -> Alcotest.fail "unbounded");
  ]

let () =
  Alcotest.run "defense"
    [ ("defense", defense_tests); ("contingency", contingency_tests) ]
