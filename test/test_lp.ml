(* Tests for the exact LP path — Certify's recorder, exact presolve and
   the exact simplex (Certify.solve_exact) — including cross-validation
   against the SMT solver's bounded-cost feasibility queries (the paper's
   OPF pattern).  A maximum is checked as the negated minimum of the
   negated objective. *)

module Q = Numeric.Rat
module L = Smt.Linexp
module F = Smt.Form

let qc = Alcotest.testable Q.pp Q.equal

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let minimize ?(constant = Q.zero) t obj = Certify.solve_exact t obj ~constant

let opt_exn = function
  | Certify.Optimal { objective; values; _ } -> (objective, values)
  | Certify.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Certify.Unbounded -> Alcotest.fail "unexpected unbounded"

let q = Q.of_int

let basic_tests =
  [
    Alcotest.test_case "box minimum" `Quick (fun () ->
        (* min x + 2y, 1<=x<=4, -1<=y<=5 -> x=1, y=-1, obj=-1 *)
        let t = Certify.create () in
        let x = Certify.add_var ~lo:Q.one ~hi:(q 4) t in
        let y = Certify.add_var ~lo:Q.minus_one ~hi:(q 5) t in
        let obj, values = opt_exn (minimize t [ (x, Q.one); (y, q 2) ]) in
        Alcotest.check qc "obj" Q.minus_one obj;
        Alcotest.check qc "x" Q.one values.(x);
        Alcotest.check qc "y" Q.minus_one values.(y));
    Alcotest.test_case "classic 2d lp" `Quick (fun () ->
        (* max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18, x,y>=0 -> (2,6), 36 *)
        let t = Certify.create () in
        let x = Certify.add_var ~lo:Q.zero t in
        let y = Certify.add_var ~lo:Q.zero t in
        Certify.add_row t ~hi:(q 4) [ (x, Q.one) ];
        Certify.add_row t ~hi:(q 12) [ (y, q 2) ];
        Certify.add_row t ~hi:(q 18) [ (x, q 3); (y, q 2) ];
        let obj, values = opt_exn (minimize t [ (x, q (-3)); (y, q (-5)) ]) in
        Alcotest.check qc "obj" (q (-36)) obj;
        Alcotest.check qc "x" (q 2) values.(x);
        Alcotest.check qc "y" (q 6) values.(y));
    Alcotest.test_case "equality constraint" `Quick (fun () ->
        (* min x+y s.t. x+y=5, x>=2, y>=1 -> 5 *)
        let t = Certify.create () in
        let x = Certify.add_var ~lo:(q 2) t in
        let y = Certify.add_var ~lo:Q.one t in
        Certify.add_row t ~lo:(q 5) ~hi:(q 5) [ (x, Q.one); (y, Q.one) ];
        let obj, _ = opt_exn (minimize t [ (x, Q.one); (y, Q.one) ]) in
        Alcotest.check qc "obj" (q 5) obj);
    Alcotest.test_case "infeasible" `Quick (fun () ->
        let t = Certify.create () in
        let x = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        Certify.add_row t ~lo:(q 2) [ (x, Q.one) ];
        Alcotest.(check bool) "infeasible" true
          (minimize t [ (x, Q.one) ] = Certify.Infeasible));
    Alcotest.test_case "contradictory bounds on one expression" `Quick
      (fun () ->
        (* 3x - y <= 0 and 3x - y >= 1 as one row whose bounds cross *)
        let t = Certify.create () in
        let x = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        let y = Certify.add_var ~lo:Q.zero ~hi:(q 2) t in
        Certify.add_row t ~lo:Q.one ~hi:Q.zero [ (x, q 3); (y, Q.minus_one) ];
        Alcotest.(check bool) "infeasible" true (minimize t [] = Certify.Infeasible));
    Alcotest.test_case "unbounded" `Quick (fun () ->
        let t = Certify.create () in
        let x = Certify.add_var ~hi:Q.zero t in
        Alcotest.(check bool) "unbounded" true
          (minimize t [ (x, Q.one) ] = Certify.Unbounded));
    Alcotest.test_case "free variable with equalities" `Quick (fun () ->
        (* min z s.t. z = x - y, x in [0,1], y in [0,1]  -> -1 *)
        let t = Certify.create () in
        let x = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        let y = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        let obj, _ = opt_exn (minimize t [ (x, Q.one); (y, Q.minus_one) ]) in
        Alcotest.check qc "obj" Q.minus_one obj);
    Alcotest.test_case "objective with constant term" `Quick (fun () ->
        let t = Certify.create () in
        let x = Certify.add_var ~lo:Q.one ~hi:(q 2) t in
        let obj, _ = opt_exn (minimize ~constant:(q 100) t [ (x, Q.one) ]) in
        Alcotest.check qc "obj" (q 101) obj);
    Alcotest.test_case "degenerate vertices terminate" `Quick (fun () ->
        (* many redundant constraints through one point; max x + y = 1 *)
        let t = Certify.create () in
        let x = Certify.add_var ~lo:Q.zero t in
        let y = Certify.add_var ~lo:Q.zero t in
        Certify.add_row t ~hi:Q.one [ (x, Q.one); (y, Q.one) ];
        Certify.add_row t ~hi:(q 2) [ (x, q 2); (y, q 2) ];
        Certify.add_row t ~hi:(q 3) [ (x, q 3); (y, q 3) ];
        Certify.add_row t ~hi:Q.one [ (x, Q.one) ];
        let obj, _ =
          opt_exn (minimize t [ (x, Q.minus_one); (y, Q.minus_one) ])
        in
        Alcotest.check qc "obj" Q.minus_one obj);
  ]

(* random transportation-like LPs: min sum c_i x_i, sum x_i = demand,
   0 <= x_i <= cap_i.  Greedy fill by ascending cost gives the optimum,
   which the simplex must match. *)
let gen_transport =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* costs = list_size (return n) (int_range 1 50) in
    let* caps = list_size (return n) (int_range 1 20) in
    let total = List.fold_left ( + ) 0 caps in
    let* demand = int_range 0 total in
    return (costs, caps, demand))

let greedy_transport costs caps demand =
  let sorted =
    List.sort compare (List.mapi (fun i c -> (c, i)) costs)
  in
  let caps = Array.of_list caps in
  let rec go remaining cost = function
    | [] -> cost
    | (c, i) :: rest ->
      let take = min remaining caps.(i) in
      go (remaining - take) (cost + (c * take)) rest
  in
  go demand 0 sorted

(* the transportation LP on Certify's recorder, solved exactly *)
let solve_transport costs caps demand =
  let t = Certify.create () in
  let vars =
    List.map (fun cap -> Certify.add_var ~lo:Q.zero ~hi:(q cap) t) caps
  in
  Certify.add_row t ~lo:(q demand) ~hi:(q demand)
    (List.map (fun v -> (v, Q.one)) vars);
  (vars, minimize t (List.map2 (fun c v -> (v, q c)) costs vars))

let random_tests =
  [
    prop "matches greedy on transportation LPs" gen_transport
      (fun (costs, caps, demand) ->
        match solve_transport costs caps demand with
        | _, Certify.Optimal { objective; _ } ->
          Q.equal objective (q (greedy_transport costs caps demand))
        | _ -> false);
    prop "optimal point is feasible" gen_transport (fun (costs, caps, demand) ->
        match solve_transport costs caps demand with
        | vars, Certify.Optimal { values; _ } ->
          List.for_all2
            (fun v cap -> Q.(values.(v) >= zero) && Q.(values.(v) <= of_int cap))
            vars caps
          && Q.equal
               (List.fold_left (fun acc v -> Q.add acc values.(v)) Q.zero vars)
               (q demand)
        | _ -> false);
  ]

(* LP vs SMT: the optimum found by LP must make (cost <= opt) sat and
   (cost <= opt - 1) unsat in the SMT solver over the same constraints —
   exactly the bounded-cost OPF pattern of the paper. *)
let cross_tests =
  [
    prop ~count:50 "LP optimum is the SMT feasibility boundary" gen_transport
      (fun (costs, caps, demand) ->
        match solve_transport costs caps demand with
        | _, Certify.Optimal { objective; _ } ->
          let mk bound =
            let s = Smt.Solver.create () in
            let svars =
              List.map
                (fun cap ->
                  let v = Smt.Solver.fresh_real s in
                  Smt.Solver.bound_real s ~lo:Q.zero ~hi:(Q.of_int cap) v;
                  v)
                caps
            in
            Smt.Solver.assert_form s
              (F.eq (L.sum (List.map L.var svars)) (L.const (Q.of_int demand)));
            let scost =
              L.sum (List.map2 (fun c v -> L.monomial (Q.of_int c) v) costs svars)
            in
            Smt.Solver.assert_form s (F.le scost (L.const bound));
            Smt.Solver.check s
          in
          mk objective = `Sat
          && mk (Q.sub objective Q.one) = `Unsat
        | _ -> false);
  ]

let () =
  Alcotest.run "lp"
    [ ("basic", basic_tests); ("random", random_tests); ("lp-vs-smt", cross_tests) ]
