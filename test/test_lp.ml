(* Tests for the exact LP solver, including cross-validation against the
   SMT solver's bounded-cost feasibility queries (the paper's OPF pattern). *)

module Q = Numeric.Rat
module L = Smt.Linexp
module F = Smt.Form

let qc = Alcotest.testable Q.pp Q.equal

let prop ?(count = 100) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

let opt_exn = function
  | Lp.Optimal { objective; values } -> (objective, values)
  | Lp.Infeasible -> Alcotest.fail "unexpected infeasible"
  | Lp.Unbounded -> Alcotest.fail "unexpected unbounded"

let basic_tests =
  [
    Alcotest.test_case "box minimum" `Quick (fun () ->
        (* min x + 2y, 1<=x<=4, -1<=y<=5 -> x=1, y=-1, obj=-1 *)
        let t = Lp.create () in
        let x = Lp.add_var ~lo:Q.one ~hi:(Q.of_int 4) t in
        let y = Lp.add_var ~lo:Q.minus_one ~hi:(Q.of_int 5) t in
        let obj, values =
          opt_exn (Lp.minimize t (L.add (L.var x) (L.scale (Q.of_int 2) (L.var y))))
        in
        Alcotest.check qc "obj" Q.minus_one obj;
        Alcotest.check qc "x" Q.one values.(x);
        Alcotest.check qc "y" Q.minus_one values.(y));
    Alcotest.test_case "classic 2d lp" `Quick (fun () ->
        (* max 3x + 5y s.t. x<=4, 2y<=12, 3x+2y<=18, x,y>=0 -> (2,6), 36 *)
        let t = Lp.create () in
        let x = Lp.add_var ~lo:Q.zero t in
        let y = Lp.add_var ~lo:Q.zero t in
        Lp.add_le t (L.var x) (Q.of_int 4);
        Lp.add_le t (L.scale (Q.of_int 2) (L.var y)) (Q.of_int 12);
        Lp.add_le t
          (L.add (L.scale (Q.of_int 3) (L.var x)) (L.scale (Q.of_int 2) (L.var y)))
          (Q.of_int 18);
        let obj, values =
          opt_exn
            (Lp.maximize t
               (L.add (L.scale (Q.of_int 3) (L.var x)) (L.scale (Q.of_int 5) (L.var y))))
        in
        Alcotest.check qc "obj" (Q.of_int 36) obj;
        Alcotest.check qc "x" (Q.of_int 2) values.(x);
        Alcotest.check qc "y" (Q.of_int 6) values.(y));
    Alcotest.test_case "equality constraint" `Quick (fun () ->
        (* min x+y s.t. x+y=5, x>=2, y>=1 -> 5 *)
        let t = Lp.create () in
        let x = Lp.add_var ~lo:(Q.of_int 2) t in
        let y = Lp.add_var ~lo:Q.one t in
        Lp.add_eq t (L.add (L.var x) (L.var y)) (Q.of_int 5);
        let obj, _ = opt_exn (Lp.minimize t (L.add (L.var x) (L.var y))) in
        Alcotest.check qc "obj" (Q.of_int 5) obj);
    Alcotest.test_case "infeasible" `Quick (fun () ->
        let t = Lp.create () in
        let x = Lp.add_var ~lo:Q.zero ~hi:Q.one t in
        Lp.add_ge t (L.var x) (Q.of_int 2);
        Alcotest.(check bool) "infeasible" true
          (Lp.minimize t (L.var x) = Lp.Infeasible));
    Alcotest.test_case "contradictory bounds on one expression" `Quick
      (fun () ->
        (* 3x - y <= 0 and 3x - y >= 1 share one row *)
        let t = Lp.create () in
        let x = Lp.add_var ~lo:Q.zero ~hi:Q.one t in
        let y = Lp.add_var ~lo:Q.zero ~hi:(Q.of_int 2) t in
        let e = L.sub (L.scale (Q.of_int 3) (L.var x)) (L.var y) in
        Lp.add_le t e Q.zero;
        Lp.add_ge t e Q.one;
        Alcotest.(check bool) "infeasible" true
          (Lp.minimize t (L.const Q.zero) = Lp.Infeasible));
    Alcotest.test_case "unbounded" `Quick (fun () ->
        let t = Lp.create () in
        let x = Lp.add_var ~hi:Q.zero t in
        Alcotest.(check bool) "unbounded" true
          (Lp.minimize t (L.var x) = Lp.Unbounded));
    Alcotest.test_case "free variable with equalities" `Quick (fun () ->
        (* min z s.t. z = x - y, x in [0,1], y in [0,1]  -> -1 *)
        let t = Lp.create () in
        let x = Lp.add_var ~lo:Q.zero ~hi:Q.one t in
        let y = Lp.add_var ~lo:Q.zero ~hi:Q.one t in
        let obj, _ = opt_exn (Lp.minimize t (L.sub (L.var x) (L.var y))) in
        Alcotest.check qc "obj" Q.minus_one obj);
    Alcotest.test_case "objective with constant term" `Quick (fun () ->
        let t = Lp.create () in
        let x = Lp.add_var ~lo:Q.one ~hi:(Q.of_int 2) t in
        let obj, _ =
          opt_exn (Lp.minimize t (L.add (L.var x) (L.const (Q.of_int 100))))
        in
        Alcotest.check qc "obj" (Q.of_int 101) obj);
    Alcotest.test_case "degenerate vertices terminate" `Quick (fun () ->
        (* many redundant constraints through one point *)
        let t = Lp.create () in
        let x = Lp.add_var ~lo:Q.zero t in
        let y = Lp.add_var ~lo:Q.zero t in
        Lp.add_le t (L.add (L.var x) (L.var y)) Q.one;
        Lp.add_le t (L.add (L.scale (Q.of_int 2) (L.var x)) (L.scale (Q.of_int 2) (L.var y))) (Q.of_int 2);
        Lp.add_le t (L.add (L.scale (Q.of_int 3) (L.var x)) (L.scale (Q.of_int 3) (L.var y))) (Q.of_int 3);
        Lp.add_le t (L.var x) Q.one;
        let obj, _ =
          opt_exn (Lp.maximize t (L.add (L.var x) (L.var y)))
        in
        Alcotest.check qc "obj" Q.one obj);
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

let random_tests =
  [
    prop "matches greedy on transportation LPs" gen_transport
      (fun (costs, caps, demand) ->
        let t = Lp.create () in
        let vars =
          List.map (fun cap -> Lp.add_var ~lo:Q.zero ~hi:(Q.of_int cap) t) caps
        in
        Lp.add_eq t (L.sum (List.map L.var vars)) (Q.of_int demand);
        let obj =
          L.sum (List.map2 (fun c v -> L.monomial (Q.of_int c) v) costs vars)
        in
        match Lp.minimize t obj with
        | Lp.Optimal { objective; _ } ->
          Q.equal objective (Q.of_int (greedy_transport costs caps demand))
        | _ -> false);
    prop "optimal point is feasible" gen_transport (fun (costs, caps, demand) ->
        let t = Lp.create () in
        let vars =
          List.map (fun cap -> Lp.add_var ~lo:Q.zero ~hi:(Q.of_int cap) t) caps
        in
        Lp.add_eq t (L.sum (List.map L.var vars)) (Q.of_int demand);
        let obj =
          L.sum (List.map2 (fun c v -> L.monomial (Q.of_int c) v) costs vars)
        in
        match Lp.minimize t obj with
        | Lp.Optimal { values; _ } ->
          List.for_all2
            (fun v cap ->
              Q.(values.(v) >= zero) && Q.(values.(v) <= of_int cap))
            vars caps
          && Q.equal
               (List.fold_left (fun acc v -> Q.add acc values.(v)) Q.zero vars)
               (Q.of_int demand)
        | _ -> false);
  ]

(* LP vs SMT: the optimum found by LP must make (cost <= opt) sat and
   (cost <= opt - 1) unsat in the SMT solver over the same constraints —
   exactly the bounded-cost OPF pattern of the paper. *)
let cross_tests =
  [
    prop ~count:50 "LP optimum is the SMT feasibility boundary" gen_transport
      (fun (costs, caps, demand) ->
        let t = Lp.create () in
        let vars =
          List.map (fun cap -> Lp.add_var ~lo:Q.zero ~hi:(Q.of_int cap) t) caps
        in
        Lp.add_eq t (L.sum (List.map L.var vars)) (Q.of_int demand);
        let obj =
          L.sum (List.map2 (fun c v -> L.monomial (Q.of_int c) v) costs vars)
        in
        match Lp.minimize t obj with
        | Lp.Optimal { objective; _ } ->
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
