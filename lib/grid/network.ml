module Q = Numeric.Rat

type line = {
  from_bus : int;
  to_bus : int;
  admittance : Q.t;
  capacity : Q.t;
  known : bool;
  in_true_topology : bool;
  fixed : bool;
  status_secured : bool;
  status_alterable : bool;
}

type gen = { gbus : int; pmax : Q.t; pmin : Q.t; alpha : Q.t; beta : Q.t }
type load = { lbus : int; existing : Q.t; lmax : Q.t; lmin : Q.t }
type meas = { taken : bool; secured : bool; accessible : bool }

type t = {
  n_buses : int;
  lines : line array;
  gens : gen array;
  loads : load array;
  meas : meas array;
}

let n_lines g = Array.length g.lines
let n_meas g = (2 * n_lines g) + g.n_buses

let validate g =
  let errors = ref [] in
  let err fmt = Format.kasprintf (fun s -> errors := s :: !errors) fmt in
  let bus_ok j = j >= 0 && j < g.n_buses in
  Array.iteri
    (fun i (ln : line) ->
      if not (bus_ok ln.from_bus && bus_ok ln.to_bus) then
        err "line %d: bus out of range" i;
      if ln.from_bus = ln.to_bus then err "line %d: self loop" i;
      if Q.(ln.admittance <= zero) then err "line %d: non-positive admittance" i;
      if Q.(ln.capacity <= zero) then err "line %d: non-positive capacity" i)
    g.lines;
  Array.iteri
    (fun k (gn : gen) ->
      if not (bus_ok gn.gbus) then err "gen %d: bus out of range" k;
      if Q.(gn.pmin > gn.pmax) then err "gen %d: pmin > pmax" k)
    g.gens;
  (* one generator and one load record per bus; buses are named 1-based,
     as in the file *)
  let one_per_bus what buses =
    let sorted = Array.copy buses in
    Array.sort compare sorted;
    for k = 1 to Array.length sorted - 1 do
      if sorted.(k) = sorted.(k - 1) then
        err "bus %d: multiple %s" (sorted.(k) + 1) what
    done
  in
  one_per_bus "generators" (Array.map (fun (gn : gen) -> gn.gbus) g.gens);
  Array.iteri
    (fun k (ld : load) ->
      if not (bus_ok ld.lbus) then err "load %d: bus out of range" k;
      if Q.(ld.lmin > ld.lmax) then err "load %d: lmin > lmax" k)
    g.loads;
  one_per_bus "loads" (Array.map (fun (ld : load) -> ld.lbus) g.loads);
  if Array.length g.meas <> n_meas g then
    err "measurement array has %d entries, expected %d" (Array.length g.meas)
      (n_meas g);
  match !errors with [] -> Ok () | es -> Error (String.concat "; " es)

let lines_in g j =
  Array.to_list
    (Array.of_seq
       (Seq.filter_map
          (fun (i, ln) -> if ln.to_bus = j then Some i else None)
          (Array.to_seqi g.lines)))

let lines_out g j =
  Array.to_list
    (Array.of_seq
       (Seq.filter_map
          (fun (i, ln) -> if ln.from_bus = j then Some i else None)
          (Array.to_seqi g.lines)))

let gen_at g j = Array.find_opt (fun (gn : gen) -> gn.gbus = j) g.gens
let load_at g j = Array.find_opt (fun (ld : load) -> ld.lbus = j) g.loads
let meas_fwd _ i = i
let meas_bwd g i = n_lines g + i
let meas_inj g j = (2 * n_lines g) + j

let meas_bus g m =
  let l = n_lines g in
  if m < l then g.lines.(m).from_bus
  else if m < 2 * l then g.lines.(m - l).to_bus
  else m - (2 * l)

let total_load g =
  Array.fold_left (fun acc (ld : load) -> Q.add acc ld.existing) Q.zero g.loads

let bus_demand g =
  let v = Array.make g.n_buses Q.zero in
  Array.iter (fun (ld : load) -> v.(ld.lbus) <- Q.add v.(ld.lbus) ld.existing) g.loads;
  v

let bus_generation g pg =
  let v = Array.make g.n_buses Q.zero in
  Array.iteri (fun k (gn : gen) -> v.(gn.gbus) <- Q.add v.(gn.gbus) pg.(k)) g.gens;
  v

let true_topology g = Array.map (fun (ln : line) -> ln.in_true_topology) g.lines

let pp fmt g =
  Format.fprintf fmt "grid: %d buses, %d lines, %d gens, %d loads@." g.n_buses
    (n_lines g) (Array.length g.gens) (Array.length g.loads);
  Array.iteri
    (fun i (ln : line) ->
      Format.fprintf fmt "  line %d: %d->%d d=%a cap=%a%s@." i ln.from_bus
        ln.to_bus Q.pp ln.admittance Q.pp ln.capacity
        (if ln.in_true_topology then "" else " (open)"))
    g.lines
