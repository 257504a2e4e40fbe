(* Tests for the grid substrate: network model, topology processor, exact
   DC power flow, spec parser, test systems. *)

module Q = Numeric.Rat
module M = Linalg.Mat
module N = Grid.Network
module T = Grid.Topology
module PF = Grid.Powerflow
module TS = Grid.Test_systems

let qc = Alcotest.testable Q.pp Q.equal
let close ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let five = TS.five_bus ()

let network_tests =
  [
    Alcotest.test_case "5-bus validates" `Quick (fun () ->
        match N.validate five with
        | Ok () -> ()
        | Error e -> Alcotest.fail e);
    Alcotest.test_case "counts" `Quick (fun () ->
        Alcotest.(check int) "lines" 7 (N.n_lines five);
        Alcotest.(check int) "meas" 19 (N.n_meas five));
    Alcotest.test_case "incidence helpers" `Quick (fun () ->
        (* bus 5 (index 4) receives lines 2 (1->5), 5 (2->5), 7 (4->5) *)
        Alcotest.(check (list int)) "in" [ 1; 4; 6 ] (N.lines_in five 4);
        Alcotest.(check (list int)) "out of bus 2" [ 2; 3; 4 ] (N.lines_out five 1));
    Alcotest.test_case "measurement residence (Eq. 21)" `Quick (fun () ->
        (* fwd of line 3 (2->3) at bus 2; bwd at bus 3; injection j at j *)
        Alcotest.(check int) "fwd" 1 (N.meas_bus five (N.meas_fwd five 2));
        Alcotest.(check int) "bwd" 2 (N.meas_bus five (N.meas_bwd five 2));
        Alcotest.(check int) "inj" 3 (N.meas_bus five (N.meas_inj five 3)));
    Alcotest.test_case "total load" `Quick (fun () ->
        Alcotest.check qc "0.83" (Q.of_ints 83 100) (N.total_load five));
    Alcotest.test_case "validation catches bad data" `Quick (fun () ->
        let bad =
          { five with N.lines = [| { (five.N.lines.(0)) with N.to_bus = 99 } |] }
        in
        Alcotest.(check bool) "error" true (Result.is_error (N.validate bad)));
    Alcotest.test_case "a second generator or load row at a bus is rejected"
      `Quick (fun () ->
        (* both messages name the bus 1-based, as the file does *)
        let stacked =
          {
            five with
            N.gens =
              Array.mapi
                (fun k (g : N.gen) -> if k = 1 then { g with N.gbus = 0 } else g)
                five.N.gens;
          }
        in
        Alcotest.(check (result unit string)) "generators"
          (Error "bus 1: multiple generators") (N.validate stacked);
        let split =
          { five with N.loads = Array.append five.N.loads [| five.N.loads.(0) |] }
        in
        Alcotest.(check (result unit string)) "loads"
          (Error "bus 2: multiple loads") (N.validate split));
    Alcotest.test_case "per-bus demand and generation sum the rows at a bus"
      `Quick (fun () ->
        let q = Q.of_ints in
        let split =
          {
            five with
            N.loads =
              Array.append five.N.loads
                [| { (five.N.loads.(0)) with N.existing = q 1 10 } |];
          }
        in
        Alcotest.(check (array qc)) "demand"
          [| Q.zero; q 31 100; q 24 100; q 18 100; q 20 100 |]
          (N.bus_demand split);
        let stacked =
          {
            five with
            N.gens =
              Array.mapi
                (fun k (g : N.gen) -> if k = 1 then { g with N.gbus = 0 } else g)
                five.N.gens;
          }
        in
        Alcotest.(check (array qc)) "generation"
          [| q 3 10; Q.zero; q 3 10; Q.zero; Q.zero |]
          (N.bus_generation stacked [| q 1 10; q 2 10; q 3 10 |]));
  ]

let topo_tests =
  [
    Alcotest.test_case "H has 2l+b rows and l,b block structure" `Quick
      (fun () ->
        let t = T.make five in
        let h = T.h_matrix t in
        Alcotest.(check int) "rows" 19 (M.rows h);
        Alcotest.(check int) "cols" 5 (M.cols h);
        (* forward row of line 1 (1->2, d=16.90): +d at bus1, -d at bus2 *)
        Alcotest.(check bool) "fwd" true
          (close (M.get h 0 0) 16.90 && close (M.get h 0 1) (-16.90));
        (* backward block is the negation *)
        Alcotest.(check bool) "bwd" true
          (close (M.get h 7 0) (-16.90) && close (M.get h 7 1) 16.90));
    Alcotest.test_case "B row sums are zero" `Quick (fun () ->
        let t = T.make five in
        let b = T.b_matrix t in
        for i = 0 to M.rows b - 1 do
          let s = ref 0.0 in
          for j = 0 to M.cols b - 1 do
            s := !s +. M.get b i j
          done;
          Alcotest.(check bool) "zero row sum" true (close !s 0.0)
        done);
    Alcotest.test_case "unmapped line vanishes from A and H" `Quick (fun () ->
        let mapped = N.true_topology five in
        mapped.(5) <- false;
        let t = T.make ~mapped five in
        let a = T.connectivity t in
        Alcotest.(check bool) "zero row" true
          (close (M.get a 5 2) 0.0 && close (M.get a 5 3) 0.0));
    Alcotest.test_case "connectivity check" `Quick (fun () ->
        Alcotest.(check bool) "connected" true (T.is_connected (T.make five));
        let mapped = Array.make 7 false in
        mapped.(0) <- true;
        Alcotest.(check bool) "disconnected" false
          (T.is_connected (T.make ~mapped five)));
  ]

let balanced_dispatch grid =
  (* proportional dispatch: per-bus gen/load vectors balancing the system *)
  let b = grid.N.n_buses in
  let total = N.total_load grid in
  let cap =
    Array.fold_left (fun acc (g : N.gen) -> Q.add acc g.N.pmax) Q.zero grid.N.gens
  in
  let share = Q.div total cap in
  let gen = Array.make b Q.zero in
  Array.iter (fun (g : N.gen) -> gen.(g.N.gbus) <- Q.mul g.N.pmax share) grid.N.gens;
  let load = Array.make b Q.zero in
  Array.iter (fun (l : N.load) -> load.(l.N.lbus) <- l.N.existing) grid.N.loads;
  (gen, load)

let pf_tests =
  [
    Alcotest.test_case "power balance at every bus (Eq. 8/9)" `Quick (fun () ->
        let gen, load = balanced_dispatch five in
        let t = T.make five in
        match PF.solve t ~gen ~load with
        | Error e -> Alcotest.fail e
        | Ok sol ->
          for j = 0 to 4 do
            (* P_j^B = Pd - Pg *)
            Alcotest.check qc
              (Printf.sprintf "bus %d" j)
              (Q.sub load.(j) gen.(j))
              sol.PF.consumption.(j)
          done);
    Alcotest.test_case "slack angle is zero" `Quick (fun () ->
        let gen, load = balanced_dispatch five in
        match PF.solve (T.make five) ~gen ~load with
        | Error e -> Alcotest.fail e
        | Ok sol -> Alcotest.check qc "slack" Q.zero sol.PF.theta.(0));
    Alcotest.test_case "imbalance rejected" `Quick (fun () ->
        let gen, load = balanced_dispatch five in
        gen.(0) <- Q.add gen.(0) Q.one;
        Alcotest.(check bool) "error" true
          (Result.is_error (PF.solve (T.make five) ~gen ~load)));
    Alcotest.test_case "islanded topology rejected" `Quick (fun () ->
        let gen, load = balanced_dispatch five in
        let mapped = Array.make 7 false in
        Alcotest.(check bool) "error" true
          (Result.is_error (PF.solve (T.make ~mapped five) ~gen ~load)));
    Alcotest.test_case "flows obey the angle law (Eq. 7)" `Quick (fun () ->
        let gen, load = balanced_dispatch five in
        match PF.solve (T.make five) ~gen ~load with
        | Error e -> Alcotest.fail e
        | Ok sol ->
          Array.iteri
            (fun i (ln : N.line) ->
              Alcotest.check qc
                (Printf.sprintf "line %d" i)
                (Q.mul ln.N.admittance
                   (Q.sub sol.PF.theta.(ln.N.from_bus) sol.PF.theta.(ln.N.to_bus)))
                sol.PF.flows.(i))
            five.N.lines);
    prop ~count:20 "synthetic systems solve and balance"
      (QCheck2.Gen.int_range 6 40)
      (fun buses ->
        let spec =
          (* use the module's own synthesis through the public ieee sizes
             when they match, otherwise build a small ad-hoc ring *)
          if buses = 30 then TS.ieee 30 else TS.ieee 14
        in
        ignore buses;
        let grid = spec.Grid.Spec.grid in
        let gen, load = balanced_dispatch grid in
        match PF.solve (T.make grid) ~gen ~load with
        | Error _ -> false
        | Ok sol ->
          Array.for_all2
            (fun c (expected : Q.t) -> Q.equal c expected)
            sol.PF.consumption
            (Array.init grid.N.n_buses (fun j -> Q.sub load.(j) gen.(j))));
  ]

let spec_tests =
  [
    Alcotest.test_case "case study 1 roundtrips through the file format"
      `Quick (fun () ->
        let spec = TS.case_study_1 () in
        let text = Grid.Spec.print spec in
        match Grid.Spec.parse text with
        | Error e -> Alcotest.fail e
        | Ok parsed ->
          Alcotest.(check int) "buses" 5 parsed.Grid.Spec.grid.N.n_buses;
          Alcotest.(check int) "max meas" 8 parsed.Grid.Spec.max_meas;
          Alcotest.(check int) "max buses" 3 parsed.Grid.Spec.max_buses;
          Alcotest.check qc "line 1 admittance" (Q.of_ints 169 10)
            parsed.Grid.Spec.grid.N.lines.(0).N.admittance;
          Alcotest.(check bool) "line 6 not core" false
            parsed.Grid.Spec.grid.N.lines.(5).N.fixed);
    Alcotest.test_case "parse rejects malformed rows" `Quick (fun () ->
        let bad = "# Topology (Line) Information\n1 2 3\n" in
        Alcotest.(check bool) "error" true (Result.is_error (Grid.Spec.parse bad)));
    Alcotest.test_case "parse the verbatim paper header layout" `Quick
      (fun () ->
        let text =
          "# Topology (Line) Information\n\
           # (line no, from bus, to bus, admittance, line capacity, \
           knowledge?, in true topology?, in core?, secured?, can alter?)\n\
           1 1 2 16.90 0.15 1 1 1 0 0\n\
           2 1 3 4.48 0.15 1 1 1 0 0\n\
           # Measurement Information\n\
           # (measurement no, measurement taken?, secured?, can attacker alter?)\n\
           1 1 1 0\n2 1 1 0\n3 1 0 1\n4 0 1 0\n5 1 0 1\n6 1 0 1\n7 1 1 1\n\
           # Attacker's Resource Limitation (measurements, buses)\n\
           8 3\n\
           # Bus Types (bus no, is generator?, is load?)\n\
           1 1 0\n2 0 1\n3 0 1\n\
           # Generator Information (bus no, max generation, min generation, cost coefficient)\n\
           1 0.80 0.10 60 1800\n\
           # Load Information (bus no, existing load, max load, min load)\n\
           2 0.21 0.30 0.10\n3 0.24 0.25 0.15\n\
           # Cost Constraint, Minimum Cost Increase by Attack (in percentage)\n\
           1580 3\n"
        in
        match Grid.Spec.parse text with
        | Error e -> Alcotest.fail e
        | Ok spec ->
          Alcotest.(check int) "buses" 3 spec.Grid.Spec.grid.N.n_buses;
          Alcotest.(check int) "lines" 2 (N.n_lines spec.Grid.Spec.grid);
          Alcotest.check qc "increase" (Q.of_int 3) spec.Grid.Spec.min_increase_pct);
  ]

let systems_tests =
  [
    Alcotest.test_case "all paper sizes build and validate" `Quick (fun () ->
        List.iter
          (fun n ->
            let spec = TS.ieee n in
            let grid = spec.Grid.Spec.grid in
            (match N.validate grid with
            | Ok () -> ()
            | Error e -> Alcotest.fail (Printf.sprintf "%d-bus: %s" n e));
            Alcotest.(check int) (Printf.sprintf "%d buses" n) n grid.N.n_buses;
            Alcotest.(check bool)
              (Printf.sprintf "%d-bus connected" n)
              true
              (T.is_connected (T.make grid)))
          TS.sizes);
    Alcotest.test_case "paper line counts" `Quick (fun () ->
        List.iter2
          (fun n expected ->
            Alcotest.(check int)
              (Printf.sprintf "%d-bus lines" n)
              expected
              (N.n_lines (TS.ieee n).Grid.Spec.grid))
          [ 5; 14; 30; 57; 118 ] [ 7; 20; 41; 80; 186 ]);
    Alcotest.test_case "paper generator counts" `Quick (fun () ->
        List.iter2
          (fun n expected ->
            Alcotest.(check int)
              (Printf.sprintf "%d-bus gens" n)
              expected
              (Array.length (TS.ieee n).Grid.Spec.grid.N.gens))
          [ 5; 14; 30; 57; 118 ] [ 3; 5; 6; 7; 23 ]);
    Alcotest.test_case "generation covers load everywhere" `Quick (fun () ->
        List.iter
          (fun n ->
            let grid = (TS.ieee n).Grid.Spec.grid in
            let cap =
              Array.fold_left
                (fun acc (g : N.gen) -> Q.add acc g.N.pmax)
                Q.zero grid.N.gens
            in
            Alcotest.(check bool)
              (Printf.sprintf "%d-bus capacity" n)
              true
              Q.(cap >= N.total_load grid))
          TS.sizes);
    Alcotest.test_case "case study 2 secures exactly bus-1 measurements"
      `Quick (fun () ->
        let grid = (TS.case_study_2 ()).Grid.Spec.grid in
        Array.iteri
          (fun i (m : N.meas) ->
            let expected = i = 0 || i = 1 || i = 14 in
            Alcotest.(check bool)
              (Printf.sprintf "meas %d" (i + 1))
              expected m.N.secured)
          grid.N.meas);
  ]

(* the files shipped in data/ must stay in sync with the builders *)
(* data/5.grid with bus 2's load of 0.21 split into rows of 0.11 and
   0.10: the same total, which parse and lint used to accept *)
let split_load_5 dir =
  let text =
    In_channel.with_open_bin (Filename.concat dir "5.grid") In_channel.input_all
  in
  let row = "\n2 0.2100 0.3000 0.1000\n" in
  let n = String.length row in
  let rec find i =
    if i + n > String.length text then
      Alcotest.fail "5.grid has no 0.21 load row at bus 2"
    else if String.sub text i n = row then i
    else find (i + 1)
  in
  let i = find 0 in
  String.sub text 0 i
  ^ "\n2 0.1100 0.3000 0.1000\n2 0.1000 0.3000 0.1000\n"
  ^ String.sub text (i + n) (String.length text - i - n)

let data_tests =
  let data_dir =
    (* tests run from the build sandbox; resolve the repo-root data dir *)
    let rec find dir =
      let candidate = Filename.concat dir "data" in
      if Sys.file_exists (Filename.concat candidate "cs1.grid") then
        Some candidate
      else
        let parent = Filename.dirname dir in
        if parent = dir then None else find parent
    in
    find (Sys.getcwd ())
  in
  match data_dir with
  | None ->
    [
      Alcotest.test_case "data directory not found (skipped)" `Quick (fun () ->
          ());
    ]
  | Some dir ->
    [
      Alcotest.test_case "shipped cs1.grid matches the builder" `Quick
        (fun () ->
          match Grid.Spec.parse_file (Filename.concat dir "cs1.grid") with
          | Error e -> Alcotest.fail e
          | Ok parsed ->
            let built = TS.case_study_1 () in
            Alcotest.(check bool) "same grid" true
              (parsed.Grid.Spec.grid = built.Grid.Spec.grid);
            Alcotest.(check int) "same budget" built.Grid.Spec.max_meas
              parsed.Grid.Spec.max_meas);
      Alcotest.test_case "all shipped files parse and validate" `Quick
        (fun () ->
          List.iter
            (fun name ->
              match Grid.Spec.parse_file (Filename.concat dir name) with
              | Error e -> Alcotest.fail (name ^ ": " ^ e)
              | Ok spec -> (
                match N.validate spec.Grid.Spec.grid with
                | Ok () -> ()
                | Error e -> Alcotest.fail (name ^ ": " ^ e)))
            [ "cs1.grid"; "cs2.grid"; "5.grid"; "14.grid"; "30.grid";
              "57.grid"; "118.grid" ]);
      Alcotest.test_case "a load split over two rows fails to parse" `Quick
        (fun () ->
          match Grid.Spec.parse (split_load_5 dir) with
          | Ok _ -> Alcotest.fail "the split-load file parsed"
          | Error e ->
            Alcotest.(check string) "message" "bus 2: multiple loads" e);
      Alcotest.test_case "a load split over two rows lints duplicate-load"
        `Quick (fun () ->
          match Grid.Spec.parse ~validate:false (split_load_5 dir) with
          | Error e -> Alcotest.fail e
          | Ok spec ->
            let ds = Analysis.Grid_lint.check spec in
            Alcotest.(check bool) "duplicate-load" true
              (Analysis.Diagnostic.by_code "duplicate-load" ds <> []));
    ]

(* ---- synthetic generator (Gen.make): the scaling substrate ---- *)

let gen_tests =
  let sizes = [ 100; 500; 1000 ] in
  [
    Alcotest.test_case "identical (size, seed) means byte-identical specs"
      `Quick (fun () ->
        List.iter
          (fun n ->
            let a = Grid.Spec.print (Grid.Gen.make ~seed:7 n) in
            let b = Grid.Spec.print (Grid.Gen.make ~seed:7 n) in
            Alcotest.(check string)
              (Printf.sprintf "%d buses deterministic" n)
              a b)
          sizes);
    Alcotest.test_case "different seeds draw different systems" `Quick
      (fun () ->
        let a = Grid.Spec.print (Grid.Gen.make ~seed:1 100) in
        let b = Grid.Spec.print (Grid.Gen.make ~seed:2 100) in
        Alcotest.(check bool) "differ" true (not (String.equal a b)));
    Alcotest.test_case "generated specs re-parse exactly" `Quick (fun () ->
        let spec = Grid.Gen.make ~seed:11 100 in
        let text = Grid.Spec.print spec in
        match Grid.Spec.parse text with
        | Error e -> Alcotest.fail e
        | Ok reparsed ->
          Alcotest.(check string)
            "print/parse/print fixed point" text
            (Grid.Spec.print reparsed));
    Alcotest.test_case "connected and lint-clean at every size" `Quick
      (fun () ->
        List.iter
          (fun n ->
            let spec = Grid.Gen.make ~seed:n n in
            let grid = spec.Grid.Spec.grid in
            Alcotest.(check bool)
              (Printf.sprintf "%d buses connected" n)
              true
              (T.is_connected (T.make grid));
            let diags = Analysis.Grid_lint.check spec in
            Alcotest.(check int)
              (Printf.sprintf "%d buses lint errors" n)
              0
              (Analysis.Diagnostic.count_errors diags))
          sizes);
    Alcotest.test_case "mesh density tracks the requested average degree"
      `Quick (fun () ->
        List.iter
          (fun n ->
            let spec = Grid.Gen.make ~seed:3 n in
            let grid = spec.Grid.Spec.grid in
            let degree =
              2.0 *. float_of_int (N.n_lines grid) /. float_of_int n
            in
            Alcotest.(check bool)
              (Printf.sprintf "%d buses degree %.2f in [2.5, 3.1]" n degree)
              true
              (degree >= 2.5 && degree <= 3.1))
          sizes);
    Alcotest.test_case "base power flow is within line capacities" `Quick
      (fun () ->
        (* capacity calibration leaves headroom on every line, so the
           attack-free dispatch the scenarios start from is feasible *)
        let spec = Grid.Gen.make ~seed:5 200 in
        let grid = spec.Grid.Spec.grid in
        match Attack.Base_state.proportional grid with
        | Error e -> Alcotest.fail e
        | Ok _ -> ());
    Alcotest.test_case "out-of-range parameters raise" `Quick (fun () ->
        let bad f = try ignore (f ()); false with Invalid_argument _ -> true in
        Alcotest.(check bool) "2 buses" true
          (bad (fun () -> Grid.Gen.make 2));
        Alcotest.(check bool) "degree below ring" true
          (bad (fun () -> Grid.Gen.make ~avg_degree:1.5 50));
        Alcotest.(check bool) "generator count" true
          (bad (fun () -> Grid.Gen.make ~gens:0 50)));
  ]

let () =
  Alcotest.run "grid"
    [
      ("network", network_tests);
      ("topology", topo_tests);
      ("powerflow", pf_tests);
      ("spec", spec_tests);
      ("systems", systems_tests);
      ("data-files", data_tests);
      ("gen", gen_tests);
    ]
