(* Sparse linear algebra: CSR storage plus a sparse LU factorization with
   Markowitz-style pivot ordering, instantiated over floats ({!F}, the
   sparse counterpart of {!Lu}) and exact rationals ({!Q}).

   Power-grid susceptance matrices have a handful of nonzeros per row at
   any system size, so a fill-reducing factorization keeps both the
   factor size and the per-solve cost near-linear in the number of
   buses, where the dense kernels are cubic.  One factorization serves
   [A x = b] and the transposed system [A^T y = c]; the latter is the
   access pattern of on-demand PTDF rows ({!Opf.Factors}) and of the
   dual half of a basis-certificate check ({!Certify}). *)

let c_fill_in = Obs.Counter.make "linalg.lu.fill_in"
let c_factorizations = Obs.Counter.make "linalg.lu.factorizations"

module type ELT = sig
  type t

  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val is_zero : t -> bool

  val magnitude : t -> float
  (** Pivot admissibility measure.  Exact instances may map every nonzero
      to [1.0]: correctness there needs no magnitude pivoting. *)

  val pivot_threshold : float
  (** Relative threshold within the pivot column: an entry is an
      admissible pivot when [magnitude >= pivot_threshold * column max].
      [0.0] admits any nonzero. *)

  val singular_eps : float
  (** A column whose largest magnitude falls below this is treated as
      structurally zero. *)
end

module type S = sig
  type elt
  type t

  val of_triplets : rows:int -> cols:int -> (int * int * elt) list -> t
  val rows : t -> int
  val cols : t -> int
  val nnz : t -> int
  val get : t -> int -> int -> elt
  val mul_vec : t -> elt array -> elt array
  val transpose : t -> t
  val row : t -> int -> (int * elt) list

  exception Singular

  type lu

  val lu_factor : t -> lu
  val solve : lu -> elt array -> elt array
  val solve_transpose : lu -> elt array -> elt array
  val fill_in : lu -> int
end

module Make (E : ELT) : S with type elt = E.t = struct
  type elt = E.t

  (* CSR: row [i]'s entries sit at [row_ptr.(i) .. row_ptr.(i+1) - 1],
     column indices ascending.  [transpose] of a CSR matrix is the CSC
     view of the original, so one constructor covers both layouts. *)
  type t = {
    m : int;
    n : int;
    row_ptr : int array;
    col_idx : int array;
    vals : elt array;
  }

  let rows a = a.m
  let cols a = a.n
  let nnz a = a.row_ptr.(a.m)

  let of_triplets ~rows:m ~cols:n trips =
    if m < 0 || n < 0 then invalid_arg "Sparse.of_triplets: negative size";
    (* accumulate duplicates per row, then lay out in CSR order *)
    let row_tbl = Array.init m (fun _ -> Hashtbl.create 4) in
    List.iter
      (fun (i, j, v) ->
        if i < 0 || i >= m || j < 0 || j >= n then
          invalid_arg "Sparse.of_triplets: index out of range";
        let tbl = row_tbl.(i) in
        match Hashtbl.find_opt tbl j with
        | Some v0 -> Hashtbl.replace tbl j (E.add v0 v)
        | None -> Hashtbl.replace tbl j v)
      trips;
    let row_entries =
      Array.map
        (fun tbl ->
          Hashtbl.fold (fun j v acc -> if E.is_zero v then acc else (j, v) :: acc) tbl []
          |> List.sort (fun (a, _) (b, _) -> compare a b))
        row_tbl
    in
    let total = Array.fold_left (fun acc l -> acc + List.length l) 0 row_entries in
    let row_ptr = Array.make (m + 1) 0 in
    let col_idx = Array.make total 0 in
    let vals = Array.make total E.zero in
    let k = ref 0 in
    Array.iteri
      (fun i entries ->
        row_ptr.(i) <- !k;
        List.iter
          (fun (j, v) ->
            col_idx.(!k) <- j;
            vals.(!k) <- v;
            incr k)
          entries)
      row_entries;
    row_ptr.(m) <- !k;
    { m; n; row_ptr; col_idx; vals }

  let row a i =
    List.init (a.row_ptr.(i + 1) - a.row_ptr.(i)) (fun k ->
        let p = a.row_ptr.(i) + k in
        (a.col_idx.(p), a.vals.(p)))

  let get a i j =
    let res = ref E.zero in
    for p = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
      if a.col_idx.(p) = j then res := a.vals.(p)
    done;
    !res

  let mul_vec a x =
    if Array.length x <> a.n then invalid_arg "Sparse.mul_vec: dimension mismatch";
    Array.init a.m (fun i ->
        let acc = ref E.zero in
        for p = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
          acc := E.add !acc (E.mul a.vals.(p) x.(a.col_idx.(p)))
        done;
        !acc)

  let transpose a =
    let trips = ref [] in
    for i = 0 to a.m - 1 do
      for p = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
        trips := (a.col_idx.(p), i, a.vals.(p)) :: !trips
      done
    done;
    of_triplets ~rows:a.n ~cols:a.m !trips

  exception Singular

  (* Factored form, everything indexed by elimination step:
     [P A Q = L U] with [prow]/[pcol] mapping step -> original row/column.
     L is unit lower (columns in [lcols], entries (step > k, multiplier)),
     U upper with diagonal [udiag] (rows in [urows], entries
     (step > k, value); [ucols] is the same data column-wise for the
     backward substitution). *)
  type lu = {
    size : int;
    lcols : (int * elt) array array;
    urows : (int * elt) array array;
    ucols : (int * elt) array array;
    udiag : elt array;
    prow : int array;
    pcol : int array;
    fill : int;
  }

  let fill_in f = f.fill

  let lu_factor a =
    if a.m <> a.n then invalid_arg "Sparse.lu_factor: not square";
    let n = a.m in
    (* dynamic form of the active submatrix: per-row column->value
       tables, per-column row sets, and live counts for the Markowitz
       criterion *)
    let row_tbl = Array.init n (fun _ -> Hashtbl.create 8) in
    let col_tbl = Array.init n (fun _ -> Hashtbl.create 8) in
    let row_count = Array.make n 0 in
    let col_count = Array.make n 0 in
    (* no separate row-active array: a row leaves every col_tbl set the
       moment it is chosen as pivot, so the column sets only ever name
       active rows *)
    let col_active = Array.make n true in
    for i = 0 to n - 1 do
      for p = a.row_ptr.(i) to a.row_ptr.(i + 1) - 1 do
        let j = a.col_idx.(p) in
        Hashtbl.replace row_tbl.(i) j a.vals.(p);
        Hashtbl.replace col_tbl.(j) i ();
        row_count.(i) <- row_count.(i) + 1;
        col_count.(j) <- col_count.(j) + 1
      done
    done;
    let nnz0 = nnz a in
    let prow = Array.make n 0 and pcol = Array.make n 0 in
    let lcols = Array.make n [] and urows = Array.make n [] in
    let udiag = Array.make n E.zero in
    let factor_nnz = ref 0 in
    for k = 0 to n - 1 do
      (* one cooperative-interruption check per elimination step, so a
         cancel can land inside a large (or exact-rational) factorization *)
      Obs.Probe.poll ();
      (* Markowitz-style pivot choice: take the sparsest admissible
         column (fewest active entries, i.e. smallest column count),
         then within it the admissible row with the fewest active
         entries — minimizing the (r-1)(c-1) fill bound — breaking ties
         toward larger magnitude for float stability. *)
      let pcol_k = ref (-1) in
      let rejected = ref [] in
      (try
         while true do
           let best = ref (-1) and best_cnt = ref max_int in
           for j = 0 to n - 1 do
             if col_active.(j) && col_count.(j) < !best_cnt then begin
               best := j;
               best_cnt := col_count.(j)
             end
           done;
           if !best < 0 then raise Exit;
           let j = !best in
           let colmax = ref 0.0 in
           Hashtbl.iter
             (fun i () ->
               let v = Hashtbl.find row_tbl.(i) j in
               let m = E.magnitude v in
               if m > !colmax then colmax := m)
             col_tbl.(j);
           if !colmax < E.singular_eps then begin
             (* structurally/numerically empty column: set it aside and
                look at the next sparsest; restored before failing *)
             col_active.(j) <- false;
             rejected := j :: !rejected
           end
           else begin
             pcol_k := j;
             raise Exit
           end
         done
       with Exit -> ());
      List.iter (fun j -> col_active.(j) <- true) !rejected;
      if !pcol_k < 0 then raise Singular;
      let j = !pcol_k in
      let colmax = ref 0.0 in
      Hashtbl.iter
        (fun i () ->
          let m = E.magnitude (Hashtbl.find row_tbl.(i) j) in
          if m > !colmax then colmax := m)
        col_tbl.(j);
      let prow_k = ref (-1) and prow_cnt = ref max_int and prow_mag = ref 0.0 in
      Hashtbl.iter
        (fun i () ->
          let m = E.magnitude (Hashtbl.find row_tbl.(i) j) in
          if m >= E.pivot_threshold *. !colmax && m >= E.singular_eps then
            if
              row_count.(i) < !prow_cnt
              || (row_count.(i) = !prow_cnt
                 && (m > !prow_mag || (m = !prow_mag && i < !prow_k)))
            then begin
              prow_k := i;
              prow_cnt := row_count.(i);
              prow_mag := m
            end)
        col_tbl.(j);
      if !prow_k < 0 then raise Singular;
      let i = !prow_k in
      let piv = Hashtbl.find row_tbl.(i) j in
      prow.(k) <- i;
      pcol.(k) <- j;
      udiag.(k) <- piv;
      (* detach the pivot row; its off-pivot entries become U row k *)
      let urow =
        Hashtbl.fold
          (fun c v acc -> if c = j then acc else (c, v) :: acc)
          row_tbl.(i) []
      in
      Hashtbl.iter
        (fun c _ ->
          Hashtbl.remove col_tbl.(c) i;
          col_count.(c) <- col_count.(c) - 1)
        row_tbl.(i);
      col_active.(j) <- false;
      urows.(k) <- urow;
      factor_nnz := !factor_nnz + List.length urow + 1;
      (* eliminate the pivot column from the remaining rows *)
      let below = Hashtbl.fold (fun s () acc -> s :: acc) col_tbl.(j) [] in
      List.iter
        (fun s ->
          let asj = Hashtbl.find row_tbl.(s) j in
          Hashtbl.remove row_tbl.(s) j;
          row_count.(s) <- row_count.(s) - 1;
          let l = E.div asj piv in
          if not (E.is_zero l) then begin
            lcols.(k) <- (s, l) :: lcols.(k);
            incr factor_nnz;
            List.iter
              (fun (c, v) ->
                let lv = E.mul l v in
                if not (E.is_zero lv) then
                  match Hashtbl.find_opt row_tbl.(s) c with
                  | Some e ->
                    let nv = E.sub e lv in
                    if E.is_zero nv then begin
                      (* exact cancellation: drop the entry *)
                      Hashtbl.remove row_tbl.(s) c;
                      Hashtbl.remove col_tbl.(c) s;
                      row_count.(s) <- row_count.(s) - 1;
                      col_count.(c) <- col_count.(c) - 1
                    end
                    else Hashtbl.replace row_tbl.(s) c nv
                  | None ->
                    (* fill-in *)
                    Hashtbl.replace row_tbl.(s) c (E.sub E.zero lv);
                    Hashtbl.replace col_tbl.(c) s ();
                    row_count.(s) <- row_count.(s) + 1;
                    col_count.(c) <- col_count.(c) + 1)
              urow
          end)
        below;
      Hashtbl.reset col_tbl.(j)
    done;
    (* convert to step indexing *)
    let inv_row = Array.make n 0 and inv_col = Array.make n 0 in
    for k = 0 to n - 1 do
      inv_row.(prow.(k)) <- k;
      inv_col.(pcol.(k)) <- k
    done;
    let by_step = fun (a, _) (b, _) -> compare a b in
    let lcols_s =
      Array.map
        (fun l ->
          List.map (fun (s, v) -> (inv_row.(s), v)) l
          |> List.sort by_step |> Array.of_list)
        lcols
    in
    let urows_s =
      Array.map
        (fun l ->
          List.map (fun (c, v) -> (inv_col.(c), v)) l
          |> List.sort by_step |> Array.of_list)
        urows
    in
    let ucols_acc = Array.make n [] in
    Array.iteri
      (fun k entries ->
        Array.iter (fun (j, v) -> ucols_acc.(j) <- (k, v) :: ucols_acc.(j)) entries)
      urows_s;
    let ucols = Array.map (fun l -> Array.of_list (List.rev l)) ucols_acc in
    let fill = max 0 (!factor_nnz - nnz0) in
    Obs.Counter.incr c_factorizations;
    Obs.Counter.add c_fill_in fill;
    { size = n; lcols = lcols_s; urows = urows_s; ucols; udiag; prow; pcol; fill }

  (* [A x = b] with [P A Q = L U]: forward-substitute [L y = P b]
     (scattering column k of L once [y_k] is known), back-substitute
     [U z = y] via the column view, then [x = Q z]. *)
  let solve f b =
    let n = f.size in
    if Array.length b <> n then invalid_arg "Sparse.solve: dimension mismatch";
    let acc = Array.init n (fun k -> b.(f.prow.(k))) in
    for k = 0 to n - 1 do
      let yk = acc.(k) in
      if not (E.is_zero yk) then
        Array.iter
          (fun (j, l) -> acc.(j) <- E.sub acc.(j) (E.mul l yk))
          f.lcols.(k)
    done;
    for k = n - 1 downto 0 do
      let xk = E.div acc.(k) f.udiag.(k) in
      acc.(k) <- xk;
      if not (E.is_zero xk) then
        Array.iter
          (fun (j, v) -> acc.(j) <- E.sub acc.(j) (E.mul v xk))
          f.ucols.(k)
    done;
    let x = Array.make n E.zero in
    for k = 0 to n - 1 do
      x.(f.pcol.(k)) <- acc.(k)
    done;
    x

  (* [A^T y = c]: with [A = P^T L U Q^T], [A^T = Q U^T L^T P], so solve
     [U^T z = Q^T c] forward (U rows scatter as U^T columns), then
     [L^T g = z] backward (gathering along L's columns), then
     [y = P^T g]. *)
  let solve_transpose f c =
    let n = f.size in
    if Array.length c <> n then
      invalid_arg "Sparse.solve_transpose: dimension mismatch";
    let acc = Array.init n (fun k -> c.(f.pcol.(k))) in
    for k = 0 to n - 1 do
      let zk = E.div acc.(k) f.udiag.(k) in
      acc.(k) <- zk;
      if not (E.is_zero zk) then
        Array.iter
          (fun (j, v) -> acc.(j) <- E.sub acc.(j) (E.mul v zk))
          f.urows.(k)
    done;
    for k = n - 1 downto 0 do
      let s = ref acc.(k) in
      Array.iter
        (fun (j, l) -> s := E.sub !s (E.mul l acc.(j)))
        f.lcols.(k);
      acc.(k) <- !s
    done;
    let y = Array.make n E.zero in
    for k = 0 to n - 1 do
      y.(f.prow.(k)) <- acc.(k)
    done;
    y
end

module F = Make (struct
  type t = float

  let zero = 0.0
  let add = ( +. )
  let sub = ( -. )
  let mul = ( *. )
  let div = ( /. )
  let is_zero x = x = 0.0
  let magnitude = Float.abs
  let pivot_threshold = 0.1
  let singular_eps = 1e-12
end)

module Q = Make (struct
  module R = Numeric.Rat

  type t = R.t

  let zero = R.zero
  let add = R.add
  let sub = R.sub
  let mul = R.mul
  let div = R.div
  let is_zero = R.is_zero

  (* exact arithmetic: any nonzero pivot is admissible, so magnitude only
     separates zero from nonzero and the ordering is pure Markowitz *)
  let magnitude q = if R.is_zero q then 0.0 else 1.0
  let pivot_threshold = 0.0
  let singular_eps = 0.5
end)
