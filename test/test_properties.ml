(* Cross-component property tests: random-grid spec roundtrips, exact vs
   certified float LP equality, factor properties on IEEE-14, blocking-clause
   soundness of the enumeration loop. *)

module Q = Numeric.Rat
module N = Grid.Network
module T = Grid.Topology
module TS = Grid.Test_systems

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* ---- random small networks ---- *)

let gen_network =
  QCheck2.Gen.(
    let* b = int_range 3 8 in
    (* ring plus up to 3 chords *)
    let* extra = int_range 0 3 in
    let* chords =
      list_size (return extra)
        (pair (int_range 0 (b - 1)) (int_range 0 (b - 1)))
    in
    let* adm = list_size (return (b + extra)) (int_range 2 30) in
    let* flags = list_size (return (b + extra)) (int_range 0 15) in
    let mk i (f, e) d fl =
      {
        N.from_bus = f;
        to_bus = e;
        admittance = Q.of_int d;
        capacity = Q.of_ints (1 + (i mod 4)) 10;
        known = fl land 1 = 0;
        in_true_topology = true;
        fixed = fl land 2 = 0;
        status_secured = fl land 4 = 0;
        status_alterable = fl land 8 = 0;
      }
    in
    let ring = List.init b (fun j -> (j, (j + 1) mod b)) in
    let pairs =
      ring @ List.filter (fun (f, e) -> f <> e) chords
    in
    let pairs = List.filteri (fun i _ -> i < List.length adm) pairs in
    let lines = List.mapi (fun i p -> mk i p (List.nth adm i) (List.nth flags i)) pairs in
    let l = List.length lines in
    let* gbus = int_range 0 (b - 1) in
    let gens =
      [|
        {
          N.gbus;
          pmax = Q.of_ints 8 10;
          pmin = Q.zero;
          alpha = Q.of_int 50;
          beta = Q.of_int 1500;
        };
      |]
    in
    let loads =
      Array.of_list
        (List.filter_map
           (fun j ->
             if j = gbus then None
             else
               Some
                 {
                   N.lbus = j;
                   existing = Q.of_ints 5 100;
                   lmax = Q.of_ints 10 100;
                   lmin = Q.of_ints 1 100;
                 })
           (List.init b Fun.id))
    in
    let meas =
      Array.init ((2 * l) + b) (fun i ->
          { N.taken = i mod 5 <> 4; secured = i mod 7 = 6; accessible = i mod 3 <> 2 })
    in
    return { N.n_buses = b; lines = Array.of_list lines; gens; loads; meas })

let spec_roundtrip_tests =
  [
    prop ~count:200 "spec print/parse roundtrip preserves the network"
      gen_network
      (fun grid ->
        match N.validate grid with
        | Error _ -> true (* only roundtrip valid networks *)
        | Ok () ->
          let spec =
            {
              Grid.Spec.grid;
              max_meas = 7;
              max_buses = 3;
              cost_reference = Q.of_int 1000;
              min_increase_pct = Q.of_int 2;
            }
          in
          (match Grid.Spec.parse (Grid.Spec.print spec) with
          | Error _ -> false
          | Ok parsed ->
            let g2 = parsed.Grid.Spec.grid in
            g2.N.n_buses = grid.N.n_buses
            && g2.N.lines = grid.N.lines
            && g2.N.gens = grid.N.gens
            && g2.N.loads = grid.N.loads
            && g2.N.meas = grid.N.meas
            && parsed.Grid.Spec.max_meas = 7
            && parsed.Grid.Spec.max_buses = 3));
  ]

(* ---- exact LP vs certified float LP ---- *)

let gen_transport =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let* costs = list_size (return n) (int_range 1 50) in
    let* caps = list_size (return n) (int_range 1 20) in
    let total = List.fold_left ( + ) 0 caps in
    let* demand = int_range 0 total in
    return (costs, caps, demand))

let lp_agreement_tests =
  [
    prop ~count:200 "float LP agrees with the exact LP" gen_transport
      (fun (costs, caps, demand) ->
        (* one recorded LP, solved on the exact path alone and on the
           certified float path *)
        let t = Certify.create () in
        let vars =
          List.map (fun c -> Certify.add_var ~lo:Q.zero ~hi:(Q.of_int c) t) caps
        in
        Certify.add_row t ~lo:(Q.of_int demand) ~hi:(Q.of_int demand)
          (List.map (fun v -> (v, Q.one)) vars);
        let obj = List.map2 (fun c v -> (v, Q.of_int c)) costs vars in
        let objective = function
          | Certify.Optimal { objective; _ } -> Some objective
          | Certify.Infeasible | Certify.Unbounded -> None
        in
        let exact = objective (Certify.solve_exact t obj ~constant:Q.zero) in
        let certified = objective (Certify.minimize t obj ~constant:Q.zero) in
        match (exact, certified) with
        | Some a, Some b -> Q.equal a b
        | None, None -> true
        | _ -> false);
  ]

(* ---- factors on IEEE-14 ---- *)

let factor_tests =
  [
    prop ~count:30 "IEEE-14 PTDF flows equal power-flow flows"
      QCheck2.Gen.(int_range 1 1000)
      (fun seed ->
        let grid = (TS.ieee 14).Grid.Spec.grid in
        let topo = T.make grid in
        let rng = Estimation.Noise.rng ~seed in
        let b = grid.N.n_buses in
        let inj = Array.init b (fun _ -> Estimation.Noise.gaussian rng ~mean:0.0 ~sigma:0.1) in
        let total = Array.fold_left ( +. ) 0.0 inj in
        inj.(0) <- inj.(0) -. total;
        let f = Opf.Factors.make topo in
        let via = Opf.Factors.flows_from_injections f inj in
        let gen = Array.map (fun x -> Float.max x 0.0) inj in
        let load = Array.map (fun x -> Float.max (-.x) 0.0) inj in
        match Grid.Powerflow.solve_float topo ~gen ~load with
        | Error _ -> false
        | Ok (_, flows) ->
          Array.for_all2 (fun a b -> Float.abs (a -. b) < 1e-7) via flows);
  ]

(* ---- blocking-clause soundness ---- *)

let blocking_tests =
  [
    Alcotest.test_case "enumerated CS2 vectors are pairwise distinct" `Quick
      (fun () ->
        let scenario = TS.case_study_2 () in
        let base =
          match
            Attack.Base_state.of_dispatch scenario.Grid.Spec.grid
              ~gen:(TS.case_study_base_dispatch ())
          with
          | Ok b -> b
          | Error e -> failwith e
        in
        let solver = Smt.Solver.create () in
        let vars =
          Attack.Encoder.encode solver ~mode:Attack.Encoder.With_state_infection
            ~scenario ~base
        in
        let signature (v : Attack.Vector.t) =
          ( v.Attack.Vector.excluded,
            v.Attack.Vector.included,
            List.map
              (fun (j, d) -> (j, Q.round_to_digits 2 d))
              v.Attack.Vector.infected )
        in
        let seen = Hashtbl.create 16 in
        let rec loop n =
          if n >= 30 then ()
          else
            match Smt.Solver.check solver with
            | `Unsat -> ()
            | `Sat ->
              let v = Attack.Vector.of_model solver vars scenario in
              let s = signature v in
              Alcotest.(check bool)
                (Printf.sprintf "vector %d fresh" n)
                false (Hashtbl.mem seen s);
              Hashtbl.add seen s ();
              Smt.Solver.assert_form solver
                (Attack.Vector.blocking_clause ~precision:2 vars v);
              loop (n + 1)
        in
        loop 0);
  ]

let () =
  Alcotest.run "properties"
    [
      ("spec-roundtrip", spec_roundtrip_tests);
      ("lp-vs-flp", lp_agreement_tests);
      ("factors-ieee14", factor_tests);
      ("blocking", blocking_tests);
    ]
