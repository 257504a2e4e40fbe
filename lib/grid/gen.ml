(* Deterministic synthetic grid generation (ROADMAP: past-118-bus scaling).

   The generator builds meshed systems of any size in the shape the
   paper's evaluation uses — a ring backbone for guaranteed connectivity
   plus mostly-local chords for meshing, loads on most buses, a sparse
   generator fleet sized to cover the load with headroom — and then
   calibrates line capacities from one base power flow so that the
   attack-free OPF is feasible and congestion is realistic.  Everything
   is derived from a caller-supplied seed through a self-contained
   xorshift64* stream: the same (size, seed) always yields the same
   bytes from [Spec.print].

   All drawn quantities are small decimal rationals (k/100 steps,
   capacities at 3 digits), so printing and re-parsing a generated file
   round-trips exactly.

   The capacity calibration is one float power-flow solve on the sparse
   backend ([Linalg.Sparse.F] through {!Powerflow.solve_float}), which is
   what keeps generation cheap at thousands of buses — the dense path
   this replaced was the binding constraint (see docs/linalg.md). *)

module Q = Numeric.Rat

let q = Q.of_decimal_string

(* ---- deterministic pseudo-random numbers for synthetic systems ---- *)

module Rng = struct
  type t = { mutable state : int64 }

  let make seed = { state = Int64.of_int (seed * 2654435761) }

  let next t =
    (* xorshift64* *)
    let x = t.state in
    let x = Int64.logxor x (Int64.shift_right_logical x 12) in
    let x = Int64.logxor x (Int64.shift_left x 25) in
    let x = Int64.logxor x (Int64.shift_right_logical x 27) in
    t.state <- x;
    Int64.to_int (Int64.shift_right_logical (Int64.mul x 2685821657736338717L) 3)

  let int t bound = abs (next t) mod bound

  (* rational in [lo, hi] with 2 decimal digits *)
  let rat t lo hi =
    let steps = int_of_float ((hi -. lo) *. 100.0) in
    let k = if steps <= 0 then 0 else int t (steps + 1) in
    Q.add (Q.of_decimal_string (Printf.sprintf "%.2f" lo)) (Q.of_ints k 100)
end

(* ---- calibration: set line capacities from a base power flow ---- *)

let calibrate_capacities grid =
  (* proportional dispatch to cover the total load, then caps ~= 1.25x the
     base flows with a few deliberately tight lines for congestion *)
  let total = Network.total_load grid in
  let cap_sum =
    Array.fold_left (fun acc (g : Network.gen) -> Q.add acc g.Network.pmax)
      Q.zero grid.Network.gens
  in
  let share = Q.div total cap_sum in
  let gen =
    Network.bus_generation grid
      (Array.map (fun (g : Network.gen) -> Q.mul g.Network.pmax share)
         grid.Network.gens)
  in
  let load = Network.bus_demand grid in
  let topo = Topology.make grid in
  let gen_f = Array.map Q.to_float gen and load_f = Array.map Q.to_float load in
  match Powerflow.solve_float topo ~gen:gen_f ~load:load_f with
  | Error e -> failwith ("calibrate_capacities: " ^ e)
  | Ok (_theta, flows) ->
    let lines =
      Array.mapi
        (fun i (ln : Network.line) ->
          let base = Float.abs flows.(i) in
          let factor = if i mod 7 = 3 then 1.05 else 1.3 in
          let cap = Float.max (base *. factor) 0.05 in
          { ln with Network.capacity = q (Printf.sprintf "%.3f" cap) })
        grid.Network.lines
    in
    { grid with Network.lines }

let mk_meas taken sec acc = { Network.taken; secured = sec; accessible = acc }

(* default measurement plan: all potential measurements taken; injection
   measurements at generator-only buses secured (the paper assumes
   generated-power readings have integrity protection); the rest accessible *)
let default_meas grid =
  let l = Array.length grid.Network.lines and b = grid.Network.n_buses in
  Array.init
    ((2 * l) + b)
    (fun i ->
      if i < 2 * l then mk_meas true false true
      else
        let j = i - (2 * l) in
        let gen_only =
          Network.gen_at grid j <> None && Network.load_at grid j = None
        in
        if gen_only then mk_meas true true false else mk_meas true false true)

(* ---- synthetic meshed systems ---- *)

let synthetic ~buses ~lines ~gens ~seed =
  let rng = Rng.make seed in
  (* ring backbone guarantees connectivity; chords add meshing *)
  let edges = Hashtbl.create (2 * lines) in
  let line_list = ref [] in
  let add_line f e =
    let key = (min f e, max f e) in
    if f <> e && not (Hashtbl.mem edges key) then begin
      Hashtbl.add edges key ();
      line_list := (f, e) :: !line_list;
      true
    end
    else false
  in
  for j = 0 to buses - 1 do
    ignore (add_line j ((j + 1) mod buses))
  done;
  let added = ref buses in
  while !added < lines do
    let f = Rng.int rng buses in
    (* prefer locality: most chords are short-range, as in real grids *)
    let span = if Rng.int rng 4 = 0 then buses else 1 + (buses / 6) in
    let e = (f + 1 + Rng.int rng span) mod buses in
    if add_line f e then incr added
  done;
  let line_pairs = Array.of_list (List.rev !line_list) in
  let gen_buses = Array.init gens (fun k -> k * buses / gens) in
  let gen_set = Hashtbl.create gens in
  Array.iter (fun j -> Hashtbl.replace gen_set j ()) gen_buses;
  let is_gen j = Hashtbl.mem gen_set j in
  let loads =
    (* loads everywhere except at a third of generator buses *)
    List.init buses Fun.id
    |> List.filter_map (fun j ->
           if is_gen j && Rng.int rng 3 = 0 then None
           else
             let e = Rng.rat rng 0.05 0.25 in
             Some
               {
                 Network.lbus = j;
                 existing = e;
                 lmax = Q.round_to_digits 3 (Q.mul e (Q.of_ints 16 10));
                 lmin = Q.round_to_digits 3 (Q.mul e (Q.of_ints 4 10));
               })
    |> Array.of_list
  in
  let total_load =
    Array.fold_left (fun acc (l : Network.load) -> Q.add acc l.Network.existing)
      Q.zero loads
  in
  let gen_cap_each =
    (* fleet capacity = 1.8x total load *)
    Q.div (Q.mul total_load (Q.of_ints 18 10)) (Q.of_int gens)
  in
  let gens_arr =
    Array.map
      (fun j ->
        {
          Network.gbus = j;
          pmax = Q.round_to_digits 3 (Q.mul gen_cap_each (Rng.rat rng 0.7 1.3));
          pmin = q "0.05";
          alpha = Q.of_int (40 + Rng.int rng 30);
          beta = Q.of_int (1000 + (100 * Rng.int rng 15));
        })
      gen_buses
  in
  let lines_arr =
    Array.mapi
      (fun i (f, e) ->
        let core = i < buses in
        {
          Network.from_bus = f;
          to_bus = e;
          admittance = Rng.rat rng 3.0 25.0;
          capacity = q "1.0";
          known = true;
          in_true_topology = true;
          fixed = core;
          status_secured = (if core then true else Rng.int rng 3 = 0);
          status_alterable = not core;
        })
      line_pairs
  in
  let grid =
    {
      Network.n_buses = buses;
      lines = lines_arr;
      gens = gens_arr;
      loads;
      meas = [||];
    }
  in
  let grid = calibrate_capacities grid in
  let grid = { grid with Network.meas = default_meas grid } in
  {
    Spec.grid;
    max_meas = 12;
    max_buses = 4;
    cost_reference = Q.zero;
    min_increase_pct = Q.one;
  }

let make ?(avg_degree = 2.8) ?gens ?seed buses =
  if buses < 3 then invalid_arg "Gen.make: need at least 3 buses";
  if avg_degree < 2.0 then invalid_arg "Gen.make: average degree below 2 (ring)";
  let seed = match seed with Some s -> s | None -> buses in
  (* the ring contributes degree 2; chords supply the rest.  Lines are
     undirected edges, so |E| = avg_degree * buses / 2. *)
  let lines =
    max buses (int_of_float (Float.round (avg_degree *. float_of_int buses /. 2.)))
  in
  (* cap the mesh below the distinct-pair count so chord sampling, which
     retries on duplicates, always terminates *)
  let lines = min lines (buses * (buses - 1) / 2) in
  let gens =
    match gens with
    | Some g ->
      if g < 1 || g > buses then invalid_arg "Gen.make: generator count";
      g
    | None -> max 3 (buses / 8)
  in
  synthetic ~buses ~lines ~gens ~seed
