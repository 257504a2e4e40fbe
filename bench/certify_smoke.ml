(* certify-smoke: CI gate for the certified float LP backend.

   Solves the 57-bus OPF on the certified float path and requires the
   basis certificate to validate (lp.certify.ok >= 1, lp.certify.fail =
   0), then replays a deterministic LP on the certified and exact-only
   paths and requires the two exact costs to be equal — including when
   the certificate is corrupted by hand, where the exact fallback must
   reproduce the same cost.

   CI entry point: dune build @certify-smoke *)

module Q = Numeric.Rat

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("certify-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let c_ok = Obs.Counter.make "lp.certify.ok"
let c_fail = Obs.Counter.make "lp.certify.fail"
let c_fallback = Obs.Counter.make "lp.certify.fallback"

let cost name = function
  | Certify.Optimal { objective; _ } -> objective
  | Certify.Infeasible -> fail "%s: unexpected infeasible" name
  | Certify.Unbounded -> fail "%s: unexpected unbounded" name

(* a small LP with a degenerate optimum (two optimal vertices of cost 14),
   exercising exactly the ties the certificate check must resolve *)
let mk () =
  let t = Certify.create () in
  let x = Certify.add_var ~lo:Q.zero ~hi:(Q.of_int 4) t in
  let y = Certify.add_var ~lo:Q.zero ~hi:(Q.of_int 4) t in
  let z = Certify.add_var ~lo:Q.zero ~hi:(Q.of_int 4) t in
  Certify.add_row t ~lo:(Q.of_int 5) [ (x, Q.one); (y, Q.one); (z, Q.one) ];
  Certify.add_row t ~hi:(Q.of_int 6) [ (x, Q.one); (y, Q.of_int 2) ];
  (t, [ (x, Q.of_int 3); (y, Q.of_int 2); (z, Q.of_int 4) ])

let mangle (c : Lp.Float.certificate) =
  let statuses = Array.copy c.Lp.Float.statuses in
  (try
     Array.iteri
       (fun i s ->
         match s with
         | Lp.Float.At_lower ->
           statuses.(i) <- Lp.Float.At_upper;
           raise Exit
         | Lp.Float.At_upper ->
           statuses.(i) <- Lp.Float.At_lower;
           raise Exit
         | Lp.Float.Basic | Lp.Float.Between _ -> ())
       statuses
   with Exit -> ());
  { Lp.Float.statuses }

let () =
  Obs.Clock.set Unix.gettimeofday;
  Obs.set_enabled true;
  (* the 57-bus OPF on the certified float backend: the certificate must
     validate on the first try, with no rejections *)
  let grid = (Grid.Test_systems.ieee 57).Grid.Spec.grid in
  let cost57 =
    match Opf.Float_opf.solve (Grid.Topology.make grid) with
    | Opf.Dc_opf.Dispatch d -> d.Opf.Dc_opf.cost
    | Opf.Dc_opf.Infeasible -> fail "57-bus certified OPF reported infeasible"
    | Opf.Dc_opf.Unbounded -> fail "57-bus certified OPF reported unbounded"
  in
  if Q.sign cost57 <= 0 then fail "57-bus cost is not positive";
  let ok = Obs.Counter.get c_ok in
  if ok < 1 then fail "lp.certify.ok = %d, expected >= 1" ok;
  let failures = Obs.Counter.get c_fail in
  if failures <> 0 then fail "lp.certify.fail = %d, expected 0" failures;
  Printf.printf "certify-smoke: 57-bus cost %s, certify.ok=%d, certify.fail=0\n"
    (Q.to_decimal_string ~digits:2 cost57)
    ok;
  (* certified cost == exact-only cost, exactly *)
  let t1, o1 = mk () in
  let certified = cost "certified" (Certify.minimize t1 o1 ~constant:Q.zero) in
  let t2, o2 = mk () in
  let exact = cost "exact" (Certify.solve_exact t2 o2 ~constant:Q.zero) in
  if not (Q.equal certified exact) then
    fail "certified cost %s <> exact cost %s" (Q.to_string certified)
      (Q.to_string exact);
  (* a corrupted certificate must be rejected into the exact fallback and
     still land on the same cost *)
  let fallback_before = Obs.Counter.get c_fallback in
  let t3, o3 = mk () in
  let mangled =
    cost "mangled" (Certify.minimize ~mangle_cert:mangle t3 o3 ~constant:Q.zero)
  in
  if Obs.Counter.get c_fallback <= fallback_before then
    fail "corrupted certificate did not trigger the exact fallback";
  if not (Q.equal mangled exact) then
    fail "fallback cost %s <> exact cost %s" (Q.to_string mangled)
      (Q.to_string exact);
  Printf.printf
    "certify-smoke: certified == exact == fallback-after-corruption (%s)\n"
    (Q.to_string exact);
  print_endline "certify-smoke: OK"
