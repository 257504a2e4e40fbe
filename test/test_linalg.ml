(* Tests for the linear algebra substrate: dense float, sparse and exact
   rational solves. *)

module V = Linalg.Vec
module M = Linalg.Mat
module Lu = Linalg.Lu

let close ?(eps = 1e-9) a b = Float.abs (a -. b) < eps

let check_vec_close msg a b =
  Alcotest.(check bool)
    msg true
    (V.dim a = V.dim b && Array.for_all2 (fun x y -> close x y) a b)

let prop name gen f =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count:200 ~name gen f)

(* random diagonally-dominant (hence nonsingular) matrix + rhs *)
let gen_system =
  QCheck2.Gen.(
    let* n = int_range 1 8 in
    let* entries = array_size (return (n * n)) (float_range (-10.0) 10.0) in
    let* rhs = array_size (return n) (float_range (-10.0) 10.0) in
    let m = M.init n n (fun i j -> entries.((i * n) + j)) in
    for i = 0 to n - 1 do
      let s = ref 0.0 in
      for j = 0 to n - 1 do
        s := !s +. Float.abs (M.get m i j)
      done;
      M.set m i i (!s +. 1.0)
    done;
    return (m, rhs))

let vec_tests =
  [
    Alcotest.test_case "dot and norms" `Quick (fun () ->
        let a = [| 3.0; 4.0 |] in
        Alcotest.(check bool) "norm2" true (close (V.norm2 a) 5.0);
        Alcotest.(check bool) "norm_inf" true (close (V.norm_inf a) 4.0);
        Alcotest.(check bool) "dot" true (close (V.dot a a) 25.0);
        Alcotest.(check int) "max_abs_index" 1 (V.max_abs_index a));
    Alcotest.test_case "add/sub/scale" `Quick (fun () ->
        let a = [| 1.0; 2.0 |] and b = [| 3.0; -1.0 |] in
        check_vec_close "add" [| 4.0; 1.0 |] (V.add a b);
        check_vec_close "sub" [| -2.0; 3.0 |] (V.sub a b);
        check_vec_close "scale" [| 2.0; 4.0 |] (V.scale 2.0 a));
    Alcotest.test_case "dimension mismatch raises" `Quick (fun () ->
        Alcotest.check_raises "raise" (Invalid_argument "Vec: dimension mismatch")
          (fun () -> ignore (V.add [| 1.0 |] [| 1.0; 2.0 |])));
  ]

let mat_tests =
  [
    Alcotest.test_case "identity multiplication" `Quick (fun () ->
        let a = M.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
        let r = M.mul a (M.identity 2) in
        Alcotest.(check bool) "same" true (M.to_arrays r = M.to_arrays a));
    Alcotest.test_case "transpose involution" `Quick (fun () ->
        let a = M.init 3 2 (fun i j -> float_of_int ((i * 10) + j)) in
        Alcotest.(check bool) "tt" true
          (M.to_arrays (M.transpose (M.transpose a)) = M.to_arrays a));
    Alcotest.test_case "known product" `Quick (fun () ->
        let a = M.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
        let b = M.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
        Alcotest.(check bool) "swap cols" true
          (M.to_arrays (M.mul a b) = [| [| 2.0; 1.0 |]; [| 4.0; 3.0 |] |]));
    Alcotest.test_case "drop_col" `Quick (fun () ->
        let a = M.of_arrays [| [| 1.0; 2.0; 3.0 |]; [| 4.0; 5.0; 6.0 |] |] in
        Alcotest.(check bool) "drop middle" true
          (M.to_arrays (M.drop_col a 1) = [| [| 1.0; 3.0 |]; [| 4.0; 6.0 |] |]));
    Alcotest.test_case "mul_vec" `Quick (fun () ->
        let a = M.of_arrays [| [| 1.0; 2.0 |]; [| 3.0; 4.0 |] |] in
        check_vec_close "Av" [| 5.0; 11.0 |] (M.mul_vec a [| 1.0; 2.0 |]));
  ]

let lu_tests =
  [
    Alcotest.test_case "solve known 2x2" `Quick (fun () ->
        let a = M.of_arrays [| [| 2.0; 1.0 |]; [| 1.0; 3.0 |] |] in
        let x = Lu.solve_vec a [| 5.0; 10.0 |] in
        check_vec_close "solution" [| 1.0; 3.0 |] x);
    Alcotest.test_case "pivoting required" `Quick (fun () ->
        (* a11 = 0 forces a row swap *)
        let a = M.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
        let x = Lu.solve_vec a [| 2.0; 3.0 |] in
        check_vec_close "swap solve" [| 3.0; 2.0 |] x);
    Alcotest.test_case "singular raises" `Quick (fun () ->
        let a = M.of_arrays [| [| 1.0; 2.0 |]; [| 2.0; 4.0 |] |] in
        Alcotest.check_raises "raise" Lu.Singular (fun () ->
            ignore (Lu.decompose a)));
    Alcotest.test_case "determinant" `Quick (fun () ->
        let a = M.of_arrays [| [| 2.0; 0.0 |]; [| 0.0; 3.0 |] |] in
        Alcotest.(check bool) "det 6" true (close (Lu.det a) 6.0);
        let b = M.of_arrays [| [| 0.0; 1.0 |]; [| 1.0; 0.0 |] |] in
        Alcotest.(check bool) "det -1" true (close (Lu.det b) (-1.0)));
    Alcotest.test_case "inverse" `Quick (fun () ->
        let a = M.of_arrays [| [| 4.0; 7.0 |]; [| 2.0; 6.0 |] |] in
        let ai = Lu.inverse a in
        let prod = M.mul a ai in
        Alcotest.(check bool) "a*ai = I" true
          (close (M.get prod 0 0) 1.0
          && close (M.get prod 1 1) 1.0
          && close (M.get prod 0 1) 0.0
          && close (M.get prod 1 0) 0.0));
    prop "LU solve residual small" gen_system (fun (m, b) ->
        let x = Lu.solve_vec m b in
        let r = V.sub (M.mul_vec m x) b in
        V.norm_inf r < 1e-6);
    prop "det of product is product of dets" gen_system (fun (m, _) ->
        let d2 = Lu.det (M.mul m m) in
        let d = Lu.det m in
        Float.abs (d2 -. (d *. d)) < (1e-6 *. Float.max 1.0 (Float.abs (d *. d))));
  ]

(* ---- exact rational systems ---- *)

module Q = Numeric.Rat

(* dense rational matrices as arrays of rows *)
let qmul_vec m x =
  Array.map
    (fun row ->
      let acc = ref Q.zero in
      Array.iteri (fun j a -> acc := Q.add !acc (Q.mul a x.(j))) row;
      !acc)
    m

let qtranspose m =
  Array.init (Array.length m.(0)) (fun i -> Array.map (fun row -> row.(i)) m)

(* [m x = b] holds exactly *)
let solves m x b = Array.for_all2 Q.equal (qmul_vec m x) b

(* random nonsingular rational matrix: unit lower times unit upper with a
   random nonzero diagonal, so nonsingularity holds by construction *)
let gen_qsystem =
  QCheck2.Gen.(
    let* n = int_range 1 6 in
    let entry = map (fun (a, b) -> Q.of_ints a b) (pair (int_range (-9) 9) (int_range 1 9)) in
    let* l = array_size (return (n * n)) entry in
    let* u = array_size (return (n * n)) entry in
    let* d = array_size (return n) (int_range 1 9) in
    let* b = array_size (return n) entry in
    let lm i j =
      if i = j then Q.one else if i > j then l.((i * n) + j) else Q.zero
    in
    let um i j =
      if i = j then Q.of_int d.(i) else if i < j then u.((i * n) + j) else Q.zero
    in
    let prod =
      Array.init n (fun i ->
          Array.init n (fun j ->
              let acc = ref Q.zero in
              for k = 0 to n - 1 do
                acc := Q.add !acc (Q.mul (lm i k) (um k j))
              done;
              !acc))
    in
    return (prod, b))

(* ---- sparse CSR/CSC LU vs the dense backends ---- *)

module Sf = Linalg.Sparse.F
module Sq = Linalg.Sparse.Q

let triplets_of_mat m =
  let acc = ref [] in
  for i = M.rows m - 1 downto 0 do
    for j = M.cols m - 1 downto 0 do
      let v = M.get m i j in
      if v <> 0.0 then acc := (i, j, v) :: !acc
    done
  done;
  !acc

let qsparse m =
  let acc = ref [] in
  for i = Array.length m - 1 downto 0 do
    for j = Array.length m.(i) - 1 downto 0 do
      let v = m.(i).(j) in
      if not (Q.is_zero v) then acc := (i, j, v) :: !acc
    done
  done;
  let n = Array.length m in
  Sq.of_triplets ~rows:n ~cols:n !acc

(* random sparse diagonally-dominant system: ~30% off-diagonal density,
   dominance restores nonsingularity whatever the pattern *)
let gen_sparse_system =
  QCheck2.Gen.(
    let* n = int_range 1 12 in
    let* mask = array_size (return (n * n)) (float_range 0.0 1.0) in
    let* entries = array_size (return (n * n)) (float_range (-10.0) 10.0) in
    let* rhs = array_size (return n) (float_range (-10.0) 10.0) in
    let m =
      M.init n n (fun i j ->
          if i <> j && mask.((i * n) + j) < 0.7 then 0.0
          else entries.((i * n) + j))
    in
    for i = 0 to n - 1 do
      let s = ref 0.0 in
      for j = 0 to n - 1 do
        s := !s +. Float.abs (M.get m i j)
      done;
      M.set m i i (!s +. 1.0)
    done;
    return (m, rhs))

let mat_transpose_vec m v = M.mul_vec (M.transpose m) v

let sparse_tests =
  [
    Alcotest.test_case "structurally singular raises" `Quick (fun () ->
        (* column 1 is entirely absent *)
        let s = Sf.of_triplets ~rows:2 ~cols:2 [ (0, 0, 1.0); (1, 0, 2.0) ] in
        Alcotest.check_raises "raise" Sf.Singular (fun () ->
            ignore (Sf.lu_factor s)));
    Alcotest.test_case "duplicate triplets are summed" `Quick (fun () ->
        let s =
          Sf.of_triplets ~rows:1 ~cols:1 [ (0, 0, 1.5); (0, 0, 2.5) ]
        in
        Alcotest.(check bool) "summed" true (close (Sf.get s 0 0) 4.0);
        Alcotest.(check int) "nnz" 1 (Sf.nnz s));
    prop "F: solve matches the dense LU" gen_sparse_system (fun (m, b) ->
        let s = Sf.of_triplets ~rows:(M.rows m) ~cols:(M.cols m) (triplets_of_mat m) in
        let xs = Sf.solve (Sf.lu_factor s) b in
        let xd = Lu.solve_vec m b in
        Array.for_all2 (fun a c -> close ~eps:1e-6 a c) xs xd);
    prop "F: solve_transpose matches solving the transposed matrix"
      gen_sparse_system (fun (m, c) ->
        let s = Sf.of_triplets ~rows:(M.rows m) ~cols:(M.cols m) (triplets_of_mat m) in
        let ys = Sf.solve_transpose (Sf.lu_factor s) c in
        let r = V.sub (mat_transpose_vec m ys) c in
        V.norm_inf r < 1e-6);
    prop "F: fill-in is what the factorization reports" gen_sparse_system
      (fun (m, _) ->
        let s = Sf.of_triplets ~rows:(M.rows m) ~cols:(M.cols m) (triplets_of_mat m) in
        Sf.fill_in (Sf.lu_factor s) >= 0);
    prop "Q: solve satisfies A x = b exactly" gen_qsystem (fun (m, b) ->
        solves m (Sq.solve (Sq.lu_factor (qsparse m)) b) b);
    prop "Q: solve_transpose equals the dense transposed solve exactly"
      gen_qsystem (fun (m, c) ->
        let ys = Sq.solve_transpose (Sq.lu_factor (qsparse m)) c in
        solves (qtranspose m) ys c
        && Array.for_all2 Q.equal ys (Linalg.Bareiss.solve (qtranspose m) c));
  ]

(* ---- fraction-free Bareiss solve ---- *)

module Bareiss = Linalg.Bareiss
module B = Numeric.Bigint

let bareiss_tests =
  [
    Alcotest.test_case "singular raises" `Quick (fun () ->
        let m =
          [| [| Q.one; Q.of_int 2 |]; [| Q.of_int 2; Q.of_int 4 |] |]
        in
        Alcotest.check_raises "raise" Bareiss.Singular (fun () ->
            ignore (Bareiss.solve m [| Q.one; Q.one |])));
    Alcotest.test_case "empty system" `Quick (fun () ->
        Alcotest.(check int) "no solution entries" 0
          (Array.length (Bareiss.solve [||] [||])));
    prop "solve satisfies A x = b exactly" gen_qsystem (fun (m, b) ->
        solves m (Bareiss.solve m b) b);
    prop "solve_transpose equals the dense transposed solve exactly"
      gen_qsystem (fun (m, c) ->
        let y = Bareiss.solve_transpose m c in
        solves (qtranspose m) y c
        && Array.for_all2 Q.equal y (Bareiss.solve (qtranspose m) c));
    prop "solve_raw numerators over the shared denominator are the solution"
      gen_qsystem (fun (m, b) ->
        let num, den = Bareiss.solve_raw m b in
        (not (B.is_zero den))
        && solves m (Array.map (fun n -> Q.make n den) num) b);
  ]

let () =
  Alcotest.run "linalg"
    [
      ("vec", vec_tests);
      ("mat", mat_tests);
      ("lu", lu_tests);
      ("sparse", sparse_tests);
      ("bareiss", bareiss_tests);
    ]
