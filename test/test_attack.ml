(* Tests for the attack encoder and vector decoding: stealth-consistency,
   resource limits, attribute gating (Eqs. 10-22), and the case-study
   attack patterns. *)

module Q = Numeric.Rat
module N = Grid.Network
module TS = Grid.Test_systems
module Solver = Smt.Solver
module Enc = Attack.Encoder
module Vec = Attack.Vector

let qc = Alcotest.testable Q.pp Q.equal

let cs1_base () =
  let scenario = TS.case_study_1 () in
  let base =
    match
      Attack.Base_state.of_dispatch scenario.Grid.Spec.grid
        ~gen:(TS.case_study_base_dispatch ())
    with
    | Ok b -> b
    | Error e -> failwith e
  in
  (scenario, base)

let encode_fresh ?(mode = Enc.Topology_only) scenario base =
  let solver = Solver.create () in
  let vars = Enc.encode solver ~mode ~scenario ~base in
  (solver, vars)

let enumerate_vectors ?(mode = Enc.Topology_only) ?(limit = 50) scenario base =
  let solver, vars = encode_fresh ~mode scenario base in
  let rec loop acc n =
    if n >= limit then List.rev acc
    else
      match Solver.check solver with
      | `Unsat -> List.rev acc
      | `Sat ->
        let v = Vec.of_model solver vars scenario in
        Solver.assert_form solver (Vec.blocking_clause ~precision:2 vars v);
        loop (v :: acc) (n + 1)
  in
  loop [] 0

let encoder_tests =
  [
    Alcotest.test_case "CS1: some stealthy candidate exists" `Quick (fun () ->
        let scenario, base = cs1_base () in
        let solver, _ = encode_fresh scenario base in
        Alcotest.(check bool) "sat" true (Solver.check solver = `Sat));
    Alcotest.test_case "CS1: only line 6 is attackable" `Quick (fun () ->
        let scenario, base = cs1_base () in
        let vectors = enumerate_vectors scenario base in
        Alcotest.(check bool) "at least one" true (vectors <> []);
        List.iter
          (fun (v : Vec.t) ->
            Alcotest.(check (list int)) "excluded" [ 5 ] v.Vec.excluded;
            Alcotest.(check (list int)) "included" [] v.Vec.included)
          vectors);
    Alcotest.test_case "CS1: altered measurements are exactly 6,13,17,18"
      `Quick (fun () ->
        let scenario, base = cs1_base () in
        match enumerate_vectors scenario base with
        | [] -> Alcotest.fail "no vector"
        | v :: _ ->
          Alcotest.(check (list int)) "altered (0-based)" [ 5; 12; 16; 17 ]
            v.Vec.altered;
          Alcotest.(check (list int)) "buses (0-based)" [ 2; 3 ] v.Vec.buses);
    Alcotest.test_case "stealth consistency: poisoned loads preserve total"
      `Quick (fun () ->
        let scenario, base = cs1_base () in
        match enumerate_vectors scenario base with
        | [] -> Alcotest.fail "no vector"
        | v :: _ ->
          let total =
            Array.fold_left Q.add Q.zero v.Vec.est_loads
          in
          Alcotest.check qc "total load unchanged"
            (N.total_load scenario.Grid.Spec.grid)
            total);
    Alcotest.test_case "securing line 6 status kills all CS1 attacks" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        let grid = scenario.Grid.Spec.grid in
        let lines =
          Array.mapi
            (fun i ln ->
              if i = 5 then { ln with N.status_secured = true } else ln)
            grid.N.lines
        in
        let scenario =
          { scenario with Grid.Spec.grid = { grid with N.lines } }
        in
        let solver, _ = encode_fresh scenario base in
        Alcotest.(check bool) "unsat" true (Solver.check solver = `Unsat));
    Alcotest.test_case "fixed (core) lines cannot be excluded" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        let vectors = enumerate_vectors scenario base in
        List.iter
          (fun (v : Vec.t) ->
            List.iter
              (fun i ->
                Alcotest.(check bool)
                  (Printf.sprintf "line %d not core" (i + 1))
                  false
                  scenario.Grid.Spec.grid.N.lines.(i).N.fixed)
              v.Vec.excluded)
          vectors);
    Alcotest.test_case "measurement budget is respected" `Quick (fun () ->
        let scenario, base = cs1_base () in
        let vectors =
          enumerate_vectors ~mode:Enc.With_state_infection ~limit:20
            { scenario with Grid.Spec.max_meas = 4; max_buses = 2 }
            base
        in
        List.iter
          (fun (v : Vec.t) ->
            Alcotest.(check bool) "meas <= 4" true
              (List.length v.Vec.altered <= 4);
            Alcotest.(check bool) "buses <= 2" true
              (List.length v.Vec.buses <= 2))
          vectors);
    Alcotest.test_case "budget of zero measurements forbids attacks" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        let solver, _ =
          encode_fresh { scenario with Grid.Spec.max_meas = 0 } base
        in
        Alcotest.(check bool) "unsat" true (Solver.check solver = `Unsat));
    Alcotest.test_case "altered measurements are taken+accessible+unsecured"
      `Quick (fun () ->
        let scenario, base = cs1_base () in
        let grid = scenario.Grid.Spec.grid in
        let vectors =
          enumerate_vectors ~mode:Enc.With_state_infection ~limit:20 scenario
            base
        in
        List.iter
          (fun (v : Vec.t) ->
            List.iter
              (fun i ->
                let m = grid.N.meas.(i) in
                Alcotest.(check bool) "taken" true m.N.taken;
                Alcotest.(check bool) "accessible" true m.N.accessible;
                Alcotest.(check bool) "unsecured" false m.N.secured)
              v.Vec.altered)
          vectors);
    Alcotest.test_case "est_loads respect load bounds (Eq. 36)" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        let grid = scenario.Grid.Spec.grid in
        let vectors =
          enumerate_vectors ~mode:Enc.With_state_infection ~limit:20 scenario
            base
        in
        List.iter
          (fun (v : Vec.t) ->
            Array.iteri
              (fun j load ->
                match N.load_at grid j with
                | Some ld ->
                  Alcotest.(check bool)
                    (Printf.sprintf "bus %d within bounds" (j + 1))
                    true
                    Q.(load >= ld.N.lmin && load <= ld.N.lmax)
                | None ->
                  Alcotest.check qc
                    (Printf.sprintf "bus %d stays loadless" (j + 1))
                    Q.zero load)
              v.Vec.est_loads)
          vectors);
    Alcotest.test_case "UFDI-only mode never touches the topology" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        let scenario2 = TS.case_study_2 () in
        ignore scenario;
        let vectors =
          enumerate_vectors ~mode:Enc.Ufdi_only ~limit:10 scenario2 base
        in
        List.iter
          (fun (v : Vec.t) ->
            Alcotest.(check (list int)) "no exclusions" [] v.Vec.excluded;
            Alcotest.(check (list int)) "no inclusions" [] v.Vec.included;
            Alcotest.(check bool) "some infection" true (v.Vec.infected <> []))
          vectors);
    Alcotest.test_case "blocking clause forbids repeating a vector" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        let solver, vars = encode_fresh scenario base in
        (match Solver.check solver with
        | `Unsat -> Alcotest.fail "expected sat"
        | `Sat ->
          let v = Vec.of_model solver vars scenario in
          Solver.assert_form solver (Vec.blocking_clause ~precision:2 vars v);
          (* CS1 has a single attackable line; after blocking it, unsat *)
          Alcotest.(check bool) "unsat after block" true
            (Solver.check solver = `Unsat)));
    Alcotest.test_case "indicator-cardinality ablation agrees" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        Enc.encode_cardinality_with_indicators := true;
        Fun.protect
          ~finally:(fun () -> Enc.encode_cardinality_with_indicators := false)
          (fun () ->
            match enumerate_vectors scenario base with
            | [] -> Alcotest.fail "no vector under indicator encoding"
            | v :: _ ->
              Alcotest.(check (list int)) "same attack" [ 5 ] v.Vec.excluded));
  ]

let impact_tests =
  [
    Alcotest.test_case "case study 1 end-to-end" `Quick (fun () ->
        let scenario, base = cs1_base () in
        match Topoguard.Impact.analyze ~scenario ~base () with
        | Topoguard.Impact.Attack_found s ->
          Alcotest.(check (list int)) "line 6" [ 5 ]
            s.Topoguard.Impact.vector.Vec.excluded;
          (match s.Topoguard.Impact.poisoned_cost with
          | Some c ->
            Alcotest.(check bool) "cost above threshold" true
              Q.(c >= s.Topoguard.Impact.threshold)
          | None -> Alcotest.fail "expected exact poisoned cost")
        | _ -> Alcotest.fail "expected attack");
    Alcotest.test_case "case study 2 end-to-end (>=6%)" `Quick (fun () ->
        let scenario = TS.case_study_2 () in
        let _, base = cs1_base () in
        let config =
          {
            Topoguard.Impact.default_config with
            Topoguard.Impact.mode = Enc.With_state_infection;
          }
        in
        match Topoguard.Impact.analyze ~config ~scenario ~base () with
        | Topoguard.Impact.Attack_found s ->
          Alcotest.(check (list int)) "line 6" [ 5 ]
            s.Topoguard.Impact.vector.Vec.excluded;
          Alcotest.(check bool) "state 3 infected" true
            (List.mem_assoc 2 s.Topoguard.Impact.vector.Vec.infected)
        | _ -> Alcotest.fail "expected attack");
    Alcotest.test_case "case study 2 unsat at >=9% (paper boundary)" `Quick
      (fun () ->
        let scenario = TS.case_study_2 () in
        let scenario =
          { scenario with Grid.Spec.min_increase_pct = Q.of_int 9 }
        in
        let _, base = cs1_base () in
        let config =
          {
            Topoguard.Impact.default_config with
            Topoguard.Impact.mode = Enc.With_state_infection;
          }
        in
        match Topoguard.Impact.analyze ~config ~scenario ~base () with
        | Topoguard.Impact.No_attack _ -> ()
        | _ -> Alcotest.fail "expected no attack at 9%");
    Alcotest.test_case "SMT-bounded backend agrees with exact LP" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        let run backend =
          let config =
            { Topoguard.Impact.default_config with Topoguard.Impact.backend }
          in
          match Topoguard.Impact.analyze ~config ~scenario ~base () with
          | Topoguard.Impact.Attack_found s ->
            Some s.Topoguard.Impact.vector.Vec.excluded
          | _ -> None
        in
        Alcotest.(check (option (list int)))
          "same attack" (run Topoguard.Impact.Lp_exact)
          (run Topoguard.Impact.Smt_bounded));
    Alcotest.test_case "fast-factors backend agrees on CS1" `Quick (fun () ->
        let scenario, base = cs1_base () in
        let config =
          {
            Topoguard.Impact.default_config with
            Topoguard.Impact.backend = Topoguard.Impact.Fast_factors;
          }
        in
        match Topoguard.Impact.analyze ~config ~scenario ~base () with
        | Topoguard.Impact.Attack_found s ->
          Alcotest.(check (list int)) "line 6" [ 5 ]
            s.Topoguard.Impact.vector.Vec.excluded
        | _ -> Alcotest.fail "expected attack");
    Alcotest.test_case "impossible target yields no attack" `Quick (fun () ->
        let scenario, base = cs1_base () in
        let scenario =
          { scenario with Grid.Spec.min_increase_pct = Q.of_int 500 }
        in
        match Topoguard.Impact.analyze ~scenario ~base () with
        | Topoguard.Impact.No_attack _ -> ()
        | _ -> Alcotest.fail "expected no attack");
    Alcotest.test_case "ufdi-only max increase below topology attacks" `Quick
      (fun () ->
        let scenario = TS.case_study_2 () in
        let _, base = cs1_base () in
        let cfg mode =
          { Topoguard.Impact.default_config with Topoguard.Impact.mode = mode }
        in
        let ufdi =
          Topoguard.Impact.max_achievable_increase
            ~config:(cfg Enc.Ufdi_only) ~scenario ~base ()
        in
        let full =
          Topoguard.Impact.max_achievable_increase
            ~config:(cfg Enc.With_state_infection) ~scenario ~base ()
        in
        match (ufdi, full) with
        | Some u, Some f -> Alcotest.(check bool) "ufdi < full" true Q.(u < f)
        | _ -> Alcotest.fail "expected both maxima");
  ]

let evaluation_tests =
  [
    Alcotest.test_case "randomized scenarios stay within ranges" `Quick
      (fun () ->
        let spec = TS.ieee 14 in
        List.iter
          (fun seed ->
            let s = Topoguard.Evaluation.randomize_scenario ~seed spec in
            Alcotest.(check bool) "meas budget" true
              (s.Grid.Spec.max_meas >= 6 && s.Grid.Spec.max_meas <= 16);
            Alcotest.(check bool) "bus budget" true
              (s.Grid.Spec.max_buses >= 2 && s.Grid.Spec.max_buses <= 5))
          [ 1; 2; 3; 42 ]);
    Alcotest.test_case "randomization is deterministic" `Quick (fun () ->
        let spec = TS.ieee 14 in
        let a = Topoguard.Evaluation.randomize_scenario ~seed:7 spec in
        let b = Topoguard.Evaluation.randomize_scenario ~seed:7 spec in
        Alcotest.(check int) "same meas budget" a.Grid.Spec.max_meas
          b.Grid.Spec.max_meas;
        Alcotest.(check bool) "same accessibility" true
          (a.Grid.Spec.grid.N.meas = b.Grid.Spec.grid.N.meas));
    Alcotest.test_case "impact run on 14-bus produces a measurement" `Quick
      (fun () ->
        let spec = TS.ieee 14 in
        let m =
          Topoguard.Evaluation.impact_run ~mode:Enc.Topology_only ~seed:3 spec
        in
        Alcotest.(check bool) "nonzero time" true
          (m.Topoguard.Evaluation.seconds >= 0.0);
        Alcotest.(check bool) "has result" true
          (String.length m.Topoguard.Evaluation.result > 0));
  ]

(* the deterministic single-line analyzer must agree with the SMT encoder
   when the encoder is forced to the same single change *)
let smt_says_feasible scenario base line kind =
  let solver = Solver.create () in
  let vars =
    Enc.encode ~max_topology_changes:1 solver ~mode:Enc.Topology_only
      ~scenario ~base
  in
  let var =
    match kind with
    | `Exclude -> vars.Enc.p.(line)
    | `Include -> vars.Enc.q.(line)
  in
  Solver.assert_form solver (Smt.Form.bvar var);
  Solver.check solver = `Sat

let single_line_tests =
  [
    Alcotest.test_case "CS1: analyzer finds exactly the line-6 exclusion"
      `Quick (fun () ->
        let scenario, base = cs1_base () in
        let feasible = Attack.Single_line.all_feasible ~scenario ~base in
        match feasible with
        | [ (5, `Exclude, v) ] ->
          Alcotest.(check (list int)) "altered" [ 5; 12; 16; 17 ] v.Vec.altered
        | _ -> Alcotest.fail "expected only the line-6 exclusion");
    Alcotest.test_case "analyzer agrees with the SMT encoder on CS1" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        let grid = scenario.Grid.Spec.grid in
        for line = 0 to N.n_lines grid - 1 do
          List.iter
            (fun kind ->
              let det =
                match
                  (match kind with
                  | `Exclude -> Attack.Single_line.exclusion ~scenario ~base line
                  | `Include -> Attack.Single_line.inclusion ~scenario ~base line)
                with
                | Attack.Single_line.Feasible _ -> true
                | Attack.Single_line.Blocked _ -> false
              in
              let smt = smt_says_feasible scenario base line kind in
              Alcotest.(check bool)
                (Printf.sprintf "line %d %s" (line + 1)
                   (match kind with `Exclude -> "exclude" | `Include -> "include"))
                smt det)
            [ `Exclude; `Include ]
        done);
    Alcotest.test_case "analyzer agrees with the SMT encoder on IEEE-14"
      `Quick (fun () ->
        let scenario =
          Topoguard.Evaluation.randomize_scenario ~seed:5 (TS.ieee 14)
        in
        let base =
          match
            Topoguard.Impact.base_state `Case_study scenario.Grid.Spec.grid
          with
          | Ok b -> b
          | Error e -> failwith e
        in
        let grid = scenario.Grid.Spec.grid in
        for line = 0 to N.n_lines grid - 1 do
          let det =
            match Attack.Single_line.exclusion ~scenario ~base line with
            | Attack.Single_line.Feasible _ -> true
            | Attack.Single_line.Blocked _ -> false
          in
          let smt = smt_says_feasible scenario base line `Exclude in
          Alcotest.(check bool)
            (Printf.sprintf "line %d exclude" (line + 1))
            smt det
        done);
    Alcotest.test_case "blocked reasons are informative" `Quick (fun () ->
        let scenario, base = cs1_base () in
        (* line 1 (index 0) is in the core and its status is unalterable *)
        match Attack.Single_line.exclusion ~scenario ~base 0 with
        | Attack.Single_line.Feasible _ -> Alcotest.fail "expected blocked"
        | Attack.Single_line.Blocked reasons ->
          Alcotest.(check bool) "mentions core" true
            (List.mem Attack.Single_line.Line_fixed reasons);
          Alcotest.(check bool) "mentions protection" true
            (List.mem Attack.Single_line.Status_protected reasons));
    Alcotest.test_case "closed-form impact agrees with the SMT loop" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        let run use_closed_form =
          let config =
            {
              Topoguard.Impact.default_config with
              Topoguard.Impact.max_topology_changes = Some 1;
              use_closed_form;
            }
          in
          match Topoguard.Impact.analyze ~config ~scenario ~base () with
          | Topoguard.Impact.Attack_found s ->
            Some
              ( s.Topoguard.Impact.vector.Vec.excluded,
                s.Topoguard.Impact.poisoned_cost )
          | Topoguard.Impact.No_attack _ -> None
          | Topoguard.Impact.Base_infeasible e -> failwith e
        in
        Alcotest.(check bool) "same outcome" true (run false = run true));
    Alcotest.test_case "inclusion requires an open line" `Quick (fun () ->
        let scenario, base = cs1_base () in
        match Attack.Single_line.inclusion ~scenario ~base 5 with
        | Attack.Single_line.Blocked reasons ->
          Alcotest.(check bool) "already in topology" true
            (List.mem Attack.Single_line.Already_in_topology reasons)
        | Attack.Single_line.Feasible _ -> Alcotest.fail "expected blocked");
  ]

(* inclusion attacks: line 5 of the open-line variant is out of service
   and attackable *)
let inclusion_tests =
  [
    Alcotest.test_case "encoder can include the open line" `Quick (fun () ->
        let grid = TS.five_bus_open_line () in
        let scenario = { (TS.case_study_2 ()) with Grid.Spec.grid } in
        let base =
          match
            Attack.Base_state.of_dispatch grid
              ~gen:(TS.case_study_base_dispatch ())
          with
          | Ok b -> b
          | Error e -> failwith e
        in
        let solver = Solver.create () in
        let vars =
          Enc.encode solver ~mode:Enc.Topology_only ~scenario ~base
        in
        Solver.assert_form solver (Smt.Form.bvar vars.Enc.q.(4));
        match Solver.check solver with
        | `Unsat -> Alcotest.fail "inclusion should be satisfiable"
        | `Sat ->
          let v = Vec.of_model solver vars scenario in
          Alcotest.(check (list int)) "included" [ 4 ] v.Vec.included;
          Alcotest.(check bool) "line mapped" true v.Vec.mapped.(4));
    Alcotest.test_case "closed-form analyzer agrees on inclusion" `Quick
      (fun () ->
        let grid = TS.five_bus_open_line () in
        let scenario = { (TS.case_study_2 ()) with Grid.Spec.grid } in
        let base =
          match
            Attack.Base_state.of_dispatch grid
              ~gen:(TS.case_study_base_dispatch ())
          with
          | Ok b -> b
          | Error e -> failwith e
        in
        let det =
          match Attack.Single_line.inclusion ~scenario ~base 4 with
          | Attack.Single_line.Feasible _ -> true
          | Attack.Single_line.Blocked _ -> false
        in
        Alcotest.(check bool) "agrees with SMT" det
          (smt_says_feasible scenario base 4 `Include));
    Alcotest.test_case "included line carries the hypothetical flow" `Quick
      (fun () ->
        let grid = TS.five_bus_open_line () in
        let base =
          match
            Attack.Base_state.of_dispatch grid
              ~gen:(TS.case_study_base_dispatch ())
          with
          | Ok b -> b
          | Error e -> failwith e
        in
        (* the hypothetical flow d5 (theta2 - theta5) is nonzero: the
           inclusion attack must therefore forge nonzero flow readings *)
        Alcotest.(check bool) "nonzero" false
          (Q.is_zero base.Attack.Base_state.flows.(4)));
  ]

(* threshold sweeps: one scan answers several impact targets *)

module I = Topoguard.Impact

let outcome_repr = function
  | I.Attack_found s ->
    Format.asprintf "found %a cost=%s threshold=%s after %d" Vec.pp
      s.I.vector
      (match s.I.poisoned_cost with Some c -> Q.to_string c | None -> "-")
      (Q.to_string s.I.threshold) s.I.candidates
  | I.No_attack { candidates } -> Printf.sprintf "none after %d" candidates
  | I.Base_infeasible e -> "infeasible: " ^ e

(* the outcome without its [candidates] count *)
let verdict_repr = function
  | I.Attack_found s -> outcome_repr (I.Attack_found { s with I.candidates = 0 })
  | I.No_attack _ -> "none"
  | I.Base_infeasible e -> "infeasible: " ^ e

let examined = function
  | I.Attack_found s -> s.I.candidates
  | I.No_attack { candidates } -> candidates
  | I.Base_infeasible _ -> 0

let counter name = Obs.Counter.get (Obs.Counter.make name)
let pcts = List.map Q.of_decimal_string

let ieee14_proportional () =
  let scenario = TS.ieee 14 in
  match Attack.Base_state.proportional scenario.Grid.Spec.grid with
  | Ok base -> (scenario, base)
  | Error e -> failwith e

let closed_form =
  {
    I.default_config with
    I.use_closed_form = true;
    max_topology_changes = Some 1;
  }

(* each swept outcome against a fresh per-target analysis *)
let against_analyze ~config ~scenario ~base increases check =
  let swept = I.analyze_sweep ~config ~scenario ~base ~increases () in
  Alcotest.(check (list string))
    "targets in input order"
    (List.map Q.to_string increases)
    (List.map (fun (pct, _) -> Q.to_string pct) swept);
  List.iter
    (fun (pct, outcome) ->
      let scenario = { scenario with Grid.Spec.min_increase_pct = pct } in
      check
        (Printf.sprintf "target %s%%" (Q.to_decimal_string ~digits:2 pct))
        (I.analyze ~config ~scenario ~base ())
        outcome)
    swept

let sweep_tests =
  [
    Alcotest.test_case "closed form: sweep == analyze per target" `Quick
      (fun () ->
        let scenario, base = ieee14_proportional () in
        against_analyze ~config:closed_form ~scenario ~base
          (pcts [ "0.01"; "1"; "5" ])
          (fun what single swept ->
            Alcotest.(check string) what (outcome_repr single)
              (outcome_repr swept)));
    Alcotest.test_case "SMT: sweep verdicts == analyze per target" `Quick
      (fun () ->
        (* the shared solver skips candidates a lower target blocked, so
           a target's count can only be smaller than a fresh run's *)
        let scenario, base = cs1_base () in
        against_analyze ~config:I.default_config ~scenario ~base
          (pcts [ "4"; "0.5"; "8"; "2" ])
          (fun what single swept ->
            Alcotest.(check string) what (verdict_repr single)
              (verdict_repr swept);
            Alcotest.(check bool)
              (what ^ ": no more candidates than a fresh run")
              true
              (examined swept <= examined single)));
    Alcotest.test_case "a repeated target shares its outcome" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        match I.analyze_sweep ~scenario ~base ~increases:(pcts [ "4"; "4" ]) () with
        | [ (_, a); (_, b) ] ->
          Alcotest.(check string) "same outcome" (outcome_repr a)
            (outcome_repr b)
        | _ -> Alcotest.fail "expected two outcomes");
    Alcotest.test_case "exact sweep verifies each candidate once" `Quick
      (fun () ->
        let scenario, base = ieee14_proportional () in
        let config = { closed_form with I.audit = false } in
        let listed =
          min config.I.max_candidates
            (List.length (Attack.Single_line.all_feasible ~scenario ~base))
        in
        let c0 = counter "attack.loop.candidates" in
        let r0 = counter "attack.sweep.reused_verifications" in
        ignore
          (I.analyze_sweep ~config ~scenario ~base
             ~increases:(pcts [ "0.01"; "1"; "5"; "100" ])
             ());
        Alcotest.(check bool) "at most one verification per candidate" true
          (counter "attack.loop.candidates" - c0 <= listed);
        Alcotest.(check bool) "later targets reuse verdicts" true
          (counter "attack.sweep.reused_verifications" > r0));
    Alcotest.test_case "traced sweep: a verify span per verification" `Quick
      (fun () ->
        let scenario, base = ieee14_proportional () in
        let c0 = counter "attack.loop.candidates" in
        Obs.Trace.clear ();
        Obs.Trace.set_enabled true;
        Fun.protect
          ~finally:(fun () -> Obs.Trace.set_enabled false)
          (fun () ->
            ignore
              (I.analyze_sweep ~config:closed_form ~scenario ~base
                 ~increases:(pcts [ "0.01"; "1"; "5" ])
                 ()));
        let spans =
          match Obs.Json.member "traceEvents" (Obs.Trace.export_json ()) with
          | Some (Obs.Json.List events) ->
            List.length
              (List.filter
                 (fun ev ->
                   Obs.Json.member "name" ev = Some (Obs.Json.String "impact.verify")
                   && Obs.Json.member "ph" ev = Some (Obs.Json.String "B"))
                 events)
          | _ -> Alcotest.fail "no traceEvents"
        in
        Obs.Trace.clear ();
        let verified = counter "attack.loop.candidates" - c0 in
        Alcotest.(check bool) "some candidate verified" true (verified > 0);
        Alcotest.(check int) "one impact.verify span each" verified spans);
  ]

let () =
  Alcotest.run "attack"
    [
      ("encoder", encoder_tests);
      ("impact", impact_tests);
      ("evaluation", evaluation_tests);
      ("single-line", single_line_tests);
      ("inclusion", inclusion_tests);
      ("sweep", sweep_tests);
    ]
