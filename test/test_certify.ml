(* Tests for the certified float LP backend (Certify): random bounded
   LPs where the certified optimum must equal the exact simplex optimum,
   adversarial cases (degenerate bases, near-ties below the float solver's
   epsilon, a hand-corrupted certificate that must be rejected into the
   exact fallback), OPF cost agreement between the certified-float and
   exact backends, and verify-cache separation of the two formulations. *)

module Q = Numeric.Rat
module B = Numeric.Bigint
module T = Grid.Topology
module TS = Grid.Test_systems
module I = Topoguard.Impact

let qc = Alcotest.testable Q.pp Q.equal

let c_ok = Obs.Counter.make "lp.certify.ok"
let c_fail = Obs.Counter.make "lp.certify.fail"
let c_fallback = Obs.Counter.make "lp.certify.fallback"

(* counters count unconditionally, so tests can diff them *)
let counting c f =
  let before = Obs.Counter.get c in
  let r = f () in
  (r, Obs.Counter.get c - before)

let prop ?(count = 300) name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen f)

(* ---- random bounded LPs: certified == exact ---- *)

type spec = {
  n : int;
  bounds : (Q.t option * Q.t option) array;
  rows : (int array * Q.t * Q.t * int) list;
  obj : int array;
}

let gen_spec =
  QCheck2.Gen.(
    let qsmall =
      map
        (fun (a, b) -> Q.of_ints a b)
        (pair (int_range (-8) 8) (int_range 1 4))
    in
    let bound =
      let* which = int_range 0 9 in
      let* a = qsmall in
      let* b = qsmall in
      let lo = Q.min a b and hi = Q.max a b in
      return
        (if which <= 6 then (Some lo, Some hi)
         else if which = 7 then (Some lo, None)
         else if which = 8 then (None, Some hi)
         else (None, None))
    in
    let* n = int_range 1 6 in
    let* m = int_range 0 6 in
    let* bounds = array_size (return n) bound in
    let* rows =
      list_size (return m)
        (let* coeffs = array_size (return n) (int_range (-3) 3) in
         let* a = qsmall in
         let* b = qsmall in
         let* kind = int_range 0 2 in
         return (coeffs, Q.min a b, Q.max a b, kind))
    in
    let* obj = array_size (return n) (int_range (-4) 4) in
    return { n; bounds; rows; obj })

let build { n; bounds; rows; obj } =
  let t = Certify.create () in
  let vars =
    Array.init n (fun i ->
        let lo, hi = bounds.(i) in
        Certify.add_var ?lo ?hi t)
  in
  List.iter
    (fun (coeffs, rlo, rhi, kind) ->
      let terms =
        Array.to_list (Array.mapi (fun i c -> (vars.(i), Q.of_int c)) coeffs)
      in
      match kind with
      | 0 -> Certify.add_row t ~hi:rhi terms
      | 1 -> Certify.add_row t ~lo:rlo terms
      | _ -> Certify.add_row t ~lo:rlo ~hi:rlo terms)
    rows;
  let o = Array.to_list (Array.mapi (fun i c -> (vars.(i), Q.of_int c)) obj) in
  (t, o)

let same_outcome a b =
  match (a, b) with
  | Certify.Optimal { objective = x; _ }, Certify.Optimal { objective = y; _ }
    ->
    Q.equal x y
  | Certify.Infeasible, Certify.Infeasible -> true
  | Certify.Unbounded, Certify.Unbounded -> true
  | _ -> false

let objective_exn name = function
  | Certify.Optimal { objective; _ } -> objective
  | Certify.Infeasible -> Alcotest.fail (name ^ ": unexpected infeasible")
  | Certify.Unbounded -> Alcotest.fail (name ^ ": unexpected unbounded")

let random_tests =
  [
    prop "certified outcome equals the exact simplex" gen_spec (fun spec ->
        let t, o = build spec in
        same_outcome
          (Certify.minimize t o ~constant:Q.zero)
          (Certify.solve_exact t o ~constant:Q.zero));
    prop ~count:150 "optimal values satisfy every recorded row" gen_spec
      (fun spec ->
        let t, o = build spec in
        match Certify.minimize t o ~constant:Q.zero with
        | Certify.Infeasible | Certify.Unbounded -> true
        | Certify.Optimal { values; _ } ->
          let sat (coeffs, rlo, rhi, kind) =
            let a =
              Array.to_seq coeffs
              |> Seq.fold_lefti
                   (fun acc i c -> Q.add acc (Q.mul (Q.of_int c) values.(i)))
                   Q.zero
            in
            match kind with
            | 0 -> Q.( <= ) a rhi
            | 1 -> Q.( >= ) a rlo
            | _ -> Q.equal a rlo
          in
          Array.for_all
            (fun ok -> ok)
            (Array.of_list (List.map sat spec.rows)));
  ]

(* ---- adversarial cases ---- *)

let adversarial_tests =
  [
    Alcotest.test_case "degenerate optimum is certified exactly" `Quick
      (fun () ->
        (* the binding row is duplicated, so the optimal basis is
           degenerate and multiple bases describe the same vertex *)
        let t = Certify.create () in
        let x = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        let y = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        Certify.add_row t ~lo:Q.one [ (x, Q.one); (y, Q.one) ];
        Certify.add_row t ~lo:Q.one [ (x, Q.one); (y, Q.one) ];
        let o = [ (x, Q.one); (y, Q.one) ] in
        Alcotest.check qc "cost 1" Q.one
          (objective_exn "degenerate" (Certify.minimize t o ~constant:Q.zero)));
    Alcotest.test_case "near-tie below the float epsilon stays exact" `Quick
      (fun () ->
        (* min x + (1 + 1e-12) y over x + y >= 1 in the unit box: the
           cost gap is far below the float simplex's epsilon (1e-9), so the
           float solver may stop at either vertex; the exact check must
           catch the wrong one and the final answer must be exactly 1 *)
        let eps12 = Q.make B.one (B.pow10 12) in
        let t = Certify.create () in
        let x = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        let y = Certify.add_var ~lo:Q.zero ~hi:Q.one t in
        Certify.add_row t ~lo:Q.one [ (x, Q.one); (y, Q.one) ];
        let o = [ (x, Q.one); (y, Q.add Q.one eps12) ] in
        let certified = objective_exn "near-tie" (Certify.minimize t o ~constant:Q.zero) in
        let exact = objective_exn "near-tie exact" (Certify.solve_exact t o ~constant:Q.zero) in
        Alcotest.check qc "tie broken exactly" exact certified;
        Alcotest.check qc "weight on the cheap variable" Q.one certified);
    Alcotest.test_case "corrupted certificate falls back, cost unchanged"
      `Quick (fun () ->
        let mk () =
          let t = Certify.create () in
          let x = Certify.add_var ~lo:Q.zero ~hi:(Q.of_int 10) t in
          let y = Certify.add_var ~lo:Q.zero ~hi:(Q.of_int 3) t in
          Certify.add_row t ~hi:(Q.of_int 5) [ (x, Q.one); (y, Q.one) ];
          (t, [ (x, Q.one); (y, Q.of_ints 1 100) ])
        in
        let t1, o1 = mk () in
        let clean, ok_d =
          counting c_ok (fun () -> Certify.minimize t1 o1 ~constant:Q.zero)
        in
        Alcotest.(check int) "clean solve certifies" 1 ok_d;
        (* flip the first nonbasic-at-bound status to the other bound:
           the claimed point moves off the optimum, so the exact check
           must reject it *)
        let mangle (cert : Lp.Float.certificate) =
          let statuses = Array.copy cert.Lp.Float.statuses in
          let flipped = ref false in
          Array.iteri
            (fun i s ->
              if not !flipped then
                match s with
                | Lp.Float.At_lower ->
                  statuses.(i) <- Lp.Float.At_upper;
                  flipped := true
                | Lp.Float.At_upper ->
                  statuses.(i) <- Lp.Float.At_lower;
                  flipped := true
                | Lp.Float.Basic | Lp.Float.Between _ -> ())
            statuses;
          { Lp.Float.statuses }
        in
        let t2, o2 = mk () in
        let presolves = Obs.Histogram.make "lp.presolve.rows_eliminated_per_solve" in
        let presolved = Obs.Histogram.count presolves in
        let (mangled, fail_d), fallback_d =
          counting c_fallback (fun () ->
              counting c_fail (fun () ->
                  Certify.minimize ~mangle_cert:mangle t2 o2
                    ~constant:Q.zero))
        in
        Alcotest.(check int) "certificate rejected" 1 fail_d;
        Alcotest.(check int) "exact fallback ran" 1 fallback_d;
        (* the fallback re-solves the rows presolve already reduced *)
        Alcotest.(check int) "one presolve per solve" 1
          (Obs.Histogram.count presolves - presolved);
        match (clean, mangled) with
        | ( Certify.Optimal { objective = a; certified = ca; _ },
            Certify.Optimal { objective = b; certified = cb; _ } ) ->
          Alcotest.check qc "final cost unchanged" a b;
          Alcotest.(check bool) "clean path certified" true ca;
          Alcotest.(check bool) "mangled path fell back" false cb
        | _ -> Alcotest.fail "expected optima on both paths");
  ]

(* ---- OPF agreement: certified float vs exact backends ----

   Float_opf.solve and Float_opf.solve_exact pose the identical
   shift-factor LP (float PTDFs rounded to 1e-6 steps): the first
   certifies a float simplex, the second runs the exact simplex alone, so
   their optima are equal rationals.  Against Dc_opf's exact angle
   formulation the residual gap is formulation, not solver error: about a
   part in 10^6 of the cost (docs/certification.md). *)

let certified_cost name topo =
  let outcome, ok_d = counting c_ok (fun () -> Opf.Float_opf.solve topo) in
  Alcotest.(check bool) (name ^ ": solve certified") true (ok_d >= 1);
  match outcome with
  | Opf.Dc_opf.Dispatch d -> d.Opf.Dc_opf.cost
  | _ -> Alcotest.fail (name ^ ": certified float OPF found no dispatch")

let exact_cost name = function
  | Opf.Dc_opf.Dispatch d -> d.Opf.Dc_opf.cost
  | _ -> Alcotest.fail (name ^ ": exact backend found no dispatch")

let same_lp name grid =
  let c = certified_cost name (T.make grid) in
  let e = exact_cost name (Opf.Float_opf.solve_exact (T.make grid)) in
  Alcotest.check qc (name ^ ": certified cost = exact cost") e c

(* the measured cross-formulation gap is ~1e-6 of the cost *)
let rel_close a b = Float.abs (a -. b) <= 1e-4 *. (1.0 +. Float.abs b)

let opf_tests =
  [
    Alcotest.test_case "5-bus: equals the exact PTDF LP" `Quick (fun () ->
        same_lp "5" (TS.five_bus ()));
    Alcotest.test_case "IEEE-14: equals the exact PTDF LP" `Quick (fun () ->
        same_lp "14" (TS.ieee 14).Grid.Spec.grid);
    Alcotest.test_case "IEEE-14: agrees with the exact angle LP" `Quick
      (fun () ->
        let grid = (TS.ieee 14).Grid.Spec.grid in
        let c = certified_cost "14" (T.make grid) in
        let e = exact_cost "14" (Opf.Dc_opf.base_case grid) in
        Alcotest.(check bool) "costs agree (relative)" true
          (rel_close (Q.to_float c) (Q.to_float e)));
    Alcotest.test_case "IEEE-30: agrees with the exact PTDF LP" `Quick
      (fun () -> same_lp "30" (TS.ieee 30).Grid.Spec.grid);
    Alcotest.test_case "IEEE-57: agrees with the exact PTDF LP" `Quick
      (fun () -> same_lp "57" (TS.ieee 57).Grid.Spec.grid);
  ]

(* ---- verify-cache separation of the two formulations ---- *)

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

let store_tests =
  [
    Alcotest.test_case "each formulation fills its own verify: entries" `Quick
      (fun () ->
        let scenario, base = cs1_base () in
        let fresh () =
          match Store.Cache.create ~max_bytes:(1 lsl 20) () with
          | Ok c -> c
          | Error e -> Alcotest.fail e
        in
        let run cache backend =
          let config = { I.default_config with I.backend; store = Some cache } in
          I.analyze ~config ~scenario ~base ()
        in
        let entries cache =
          Store.Cache.fold cache ~init:0 ~f:(fun n ~key ~value:_ ->
              if String.starts_with ~prefix:"verify:" key then n + 1 else n)
        in
        (* a certified shift-factor run fills the store first... *)
        let shared = fresh () in
        let _, ok_d = counting c_ok (fun () -> run shared I.Fast_factors) in
        Alcotest.(check bool) "certified solves ran" true (ok_d >= 1);
        let filled = entries shared in
        Alcotest.(check bool) "store populated" true (filled > 0);
        (* ...and the angle formulation neither reads nor overwrites its
           entries: it adds its own, and answers as on a fresh store *)
        let after = run shared I.Lp_exact in
        Alcotest.(check bool) "angle formulation adds its own entries" true
          (entries shared > filled);
        let alone = fresh () in
        let reference = run alone I.Lp_exact in
        (match (after, reference) with
        | I.Attack_found a, I.Attack_found r -> (
          match (a.I.poisoned_cost, r.I.poisoned_cost) with
          | Some a, Some r -> Alcotest.check qc "poisoned cost" r a
          | _ -> Alcotest.fail "the LP backend must report a poisoned cost")
        | _ -> Alcotest.fail "expected an attack on cs1");
        Alcotest.(check bool) "same outcome as on a fresh store" true
          (after = reference);
        Store.Cache.close shared;
        Store.Cache.close alone);
  ]

let () =
  Alcotest.run "certify"
    [
      ("random", random_tests);
      ("adversarial", adversarial_tests);
      ("opf", opf_tests);
      ("store", store_tests);
    ]
