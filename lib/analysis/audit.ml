module Q = Numeric.Rat
module N = Grid.Network
module D = Analysis.Diagnostic

let obs_runs = Obs.Counter.make "audit.runs"
let obs_bridges = Obs.Counter.make "audit.bridges"
let obs_critical = Obs.Counter.make "audit.critical_measurements"

(* ---- pass 1: graph structure (one DFS + leaf peeling) ---- *)

module Structure = struct
  type t = {
    bridge : bool array;
    articulation : bool array;
    radial : bool array;
    components : int;
    two_edge_components : int;
  }

  let analyze (topo : Grid.Topology.t) =
    let grid = topo.Grid.Topology.grid in
    let mapped = topo.Grid.Topology.mapped in
    let n = grid.N.n_buses in
    let l = N.n_lines grid in
    let adj = Array.make n [] in
    Array.iteri
      (fun i (ln : N.line) ->
        if mapped.(i) then begin
          adj.(ln.N.from_bus) <- (ln.N.to_bus, i) :: adj.(ln.N.from_bus);
          adj.(ln.N.to_bus) <- (ln.N.from_bus, i) :: adj.(ln.N.to_bus)
        end)
      grid.N.lines;
    let disc = Array.make n (-1) in
    let low = Array.make n max_int in
    let bridge = Array.make l false in
    let articulation = Array.make n false in
    let timer = ref 0 in
    let components = ref 0 in
    (* Tarjan low-links on the multigraph: skip only the edge id we came
       in on, so a parallel circuit provides the back edge that keeps
       either line from being a bridge *)
    let rec dfs u parent_edge =
      disc.(u) <- !timer;
      low.(u) <- !timer;
      incr timer;
      let children = ref 0 in
      List.iter
        (fun (v, e) ->
          if e <> parent_edge && v <> u then
            if disc.(v) < 0 then begin
              incr children;
              dfs v e;
              if low.(v) < low.(u) then low.(u) <- low.(v);
              if low.(v) > disc.(u) then bridge.(e) <- true;
              if parent_edge >= 0 && low.(v) >= disc.(u) then
                articulation.(u) <- true
            end
            else if disc.(v) < low.(u) then low.(u) <- disc.(v))
        adj.(u);
      if parent_edge < 0 && !children >= 2 then articulation.(u) <- true
    in
    for u = 0 to n - 1 do
      if disc.(u) < 0 then begin
        incr components;
        dfs u (-1)
      end
    done;
    (* radial chains: repeatedly peel degree-1 buses; the peeled lines
       are the tree pendants of the mapped graph *)
    let radial = Array.make l false in
    let deg = Array.make n 0 in
    Array.iteri
      (fun i (ln : N.line) ->
        if mapped.(i) && ln.N.from_bus <> ln.N.to_bus then begin
          deg.(ln.N.from_bus) <- deg.(ln.N.from_bus) + 1;
          deg.(ln.N.to_bus) <- deg.(ln.N.to_bus) + 1
        end)
      grid.N.lines;
    let queue = Queue.create () in
    Array.iteri (fun u d -> if d = 1 then Queue.add u queue) deg;
    while not (Queue.is_empty queue) do
      let u = Queue.pop queue in
      if deg.(u) = 1 then begin
        deg.(u) <- 0;
        match
          List.find_opt
            (fun (v, e) -> (not radial.(e)) && v <> u && deg.(v) > 0)
            adj.(u)
        with
        | None -> ()
        | Some (v, e) ->
          radial.(e) <- true;
          deg.(v) <- deg.(v) - 1;
          if deg.(v) = 1 then Queue.add v queue
      end
    done;
    (* 2-edge-connected components: connectivity once bridges are cut *)
    let comp = Array.make n (-1) in
    let two_edge_components = ref 0 in
    let rec flood u c =
      comp.(u) <- c;
      List.iter
        (fun (v, e) -> if (not bridge.(e)) && comp.(v) < 0 then flood v c)
        adj.(u)
    in
    for u = 0 to n - 1 do
      if comp.(u) < 0 then begin
        flood u !two_edge_components;
        incr two_edge_components
      end
    done;
    {
      bridge;
      articulation;
      radial;
      components = !components;
      two_edge_components = !two_edge_components;
    }
end

(* ---- pass 2: interval impact bounds ---- *)

(* Greedy exact optimum of [sum (alpha + beta p)] over the generator
   boxes meeting a fixed total: start every generator at pmin and hand
   the remaining demand to the cheapest (floor) or costliest (ceiling)
   marginal costs first.  This is the OPF with every line capacity
   dropped, so it bounds the true optimum from below / above — and the
   bound survives any topology change and any total-preserving load
   shift, which is exactly what single-line attack vectors do. *)
let dispatch_cost_bound ~maximize (grid : N.t) =
  let demand = N.total_load grid in
  let gens = Array.to_list grid.N.gens in
  let total_min = List.fold_left (fun a (g : N.gen) -> Q.add a g.N.pmin) Q.zero gens in
  let total_max = List.fold_left (fun a (g : N.gen) -> Q.add a g.N.pmax) Q.zero gens in
  if Q.( < ) demand total_min || Q.( > ) demand total_max then None
  else begin
    let order =
      List.sort
        (fun (a : N.gen) (b : N.gen) ->
          let c = Q.compare a.N.beta b.N.beta in
          if maximize then -c else c)
        gens
    in
    let base_cost =
      List.fold_left
        (fun acc (g : N.gen) ->
          Q.add acc (Q.add g.N.alpha (Q.mul g.N.beta g.N.pmin)))
        Q.zero gens
    in
    let remaining = ref (Q.sub demand total_min) in
    let cost = ref base_cost in
    List.iter
      (fun (g : N.gen) ->
        let room = Q.sub g.N.pmax g.N.pmin in
        let take = Q.min room !remaining in
        if Q.sign take > 0 then begin
          cost := Q.add !cost (Q.mul g.N.beta take);
          remaining := Q.sub !remaining take
        end)
      order;
    Some !cost
  end

let cost_floor grid = dispatch_cost_bound ~maximize:false grid
let cost_ceiling grid = dispatch_cost_bound ~maximize:true grid

type static_verdict = Solve | Prune_islanding | Prune_interval

(* Post-outage flow of line [i] when line [outage] is excluded and the
   apparent loads shift by [dinj] (sparse list of per-bus injection
   deltas): f'_i = f_i + LODF_i,k f_k + (PTDF_i + LODF_i,k PTDF_k) . dinj.
   The identity PTDF^out_i = PTDF_i + LODF_i,k PTDF_k is exact, so the
   only slack needed is for float evaluation and the certified backend's
   1e-6 PTDF rounding — covered by [margin]. *)
let classify ~grid ~base_dispatch ~islanding_sound ~interval_active ~candidates
    =
  let topo = Grid.Topology.make grid in
  let structure = Structure.analyze topo in
  let existing = N.bus_demand grid in
  let inj =
    Array.map2
      (fun g d -> Q.to_float g -. Q.to_float d)
      (N.bus_generation grid base_dispatch)
      existing
  in
  let factors =
    if interval_active then
      match Opf.Factors.make topo with
      | f -> Some f
      | exception Failure _ -> None
    else None
  in
  let base_flows =
    Option.map (fun f -> Opf.Factors.flows_from_injections f inj) factors
  in
  let scale =
    Array.fold_left (fun acc x -> acc +. Float.abs x) 1.0 inj
  in
  let margin = 1e-5 *. scale in
  let base_dispatch_survives f flows ~line ~(est_loads : Q.t array) =
    (* sparse apparent-load shift: attack vectors touch two buses *)
    let dinj = ref [] in
    Array.iteri
      (fun j est ->
        if not (Q.equal est existing.(j)) then
          dinj := (j, -.Q.to_float (Q.sub est existing.(j))) :: !dinj)
      est_loads;
    let dinj = !dinj in
    let dot row =
      List.fold_left (fun acc (j, d) -> acc +. (row.(j) *. d)) 0.0 dinj
    in
    let shift_k = dot (Opf.Factors.ptdf_row f ~line) in
    let fk = flows.(line) +. shift_k in
    let ok = ref true in
    Array.iteri
      (fun i (ln : N.line) ->
        if
          !ok && i <> line
          && topo.Grid.Topology.mapped.(i)
          && ln.N.from_bus <> ln.N.to_bus
        then begin
          let lodf = Opf.Factors.lodf f ~outage:line i in
          if (not (Float.is_finite lodf)) || Float.abs lodf > 1e4 then
            ok := false
          else begin
            let shift_i = dot (Opf.Factors.ptdf_row f ~line:i) in
            let f' =
              flows.(i) +. shift_i +. (lodf *. fk)
            in
            if Float.abs f' > Q.to_float ln.N.capacity -. margin then
              ok := false
          end
        end)
      grid.N.lines;
    !ok
  in
  List.map
    (fun (line, kind, vec) ->
      match kind with
      | `Include -> Solve
      | `Exclude ->
        if structure.Structure.bridge.(line) then
          if islanding_sound then Prune_islanding else Solve
        else (
          match (factors, base_flows) with
          | Some f, Some flows
            when base_dispatch_survives f flows ~line
                   ~est_loads:vec.Attack.Vector.est_loads ->
            Prune_interval
          | _ -> Solve))
    candidates

(* ---- pass 3: measurement criticality ---- *)

let meas_name (grid : N.t) i =
  let l = N.n_lines grid in
  if i < l then Printf.sprintf "forward flow of line %d" (i + 1)
  else if i < 2 * l then Printf.sprintf "backward flow of line %d" (i - l + 1)
  else Printf.sprintf "consumption of bus %d" (i - (2 * l) + 1)

let meas_loc (grid : N.t) i =
  let l = N.n_lines grid in
  if i < l then Printf.sprintf "line %d" (i + 1)
  else if i < 2 * l then Printf.sprintf "line %d" (i - l + 1)
  else Printf.sprintf "bus %d" (i - (2 * l) + 1)

let criticality_diagnostics (grid : N.t) =
  let topo = Grid.Topology.make grid in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  if not (Estimation.Estimator.is_observable topo) then
    emit
      (D.error ~code:"unobservable-system"
         "the taken measurement set cannot observe the system: state \
          estimation has no unique solution, so every attack is stealthy");
  let critical = Estimation.Criticality.critical_measurements topo in
  Obs.Counter.add obs_critical (List.length critical);
  List.iter
    (fun i ->
      emit
        (D.warning ~code:"critical-measurement"
           ~loc:(meas_loc grid i)
           "measurement %d (%s) is critical: its loss breaks observability \
            and bad data on it leaves no residual, so it is stealthily \
            falsifiable — protect it first"
           (i + 1) (meas_name grid i)))
    critical;
  Array.iteri
    (fun i (ln : N.line) ->
      if ln.N.in_true_topology then begin
        let fwd = grid.N.meas.(N.meas_fwd grid i).N.taken in
        let bwd = grid.N.meas.(N.meas_bwd grid i).N.taken in
        if (not fwd) && not bwd then
          emit
            (D.info ~code:"unmonitored-line-flow"
               ~loc:(Printf.sprintf "line %d" (i + 1))
               "no flow measurement of line %d is taken: its status can only \
                be cross-checked through neighbouring injections"
               (i + 1))
      end)
    grid.N.lines;
  List.rev !diags

(* ---- the CLI entry: every solver-free pass over a scenario ---- *)

let structure_diagnostics (grid : N.t) (s : Structure.t) =
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let n_bridges =
    Array.fold_left (fun acc b -> if b then acc + 1 else acc) 0 s.Structure.bridge
  in
  Obs.Counter.add obs_bridges n_bridges;
  emit
    (D.info ~code:"graph-structure"
       "%d buses, %d mapped lines, %d component(s), %d bridge(s), %d \
        2-edge-connected component(s)"
       grid.N.n_buses
       (Array.fold_left
          (fun acc (ln : N.line) -> if ln.N.in_true_topology then acc + 1 else acc)
          0 grid.N.lines)
       s.Structure.components n_bridges s.Structure.two_edge_components);
  Array.iteri
    (fun i b ->
      if b then
        emit
          (D.warning ~code:"bridge-line"
             ~loc:(Printf.sprintf "line %d" (i + 1))
             "line %d is a bridge: excluding it islands the grid — statically \
              an islanding attack, prunable without a solve (and a real \
              N-1 vulnerability)"
             (i + 1)))
    s.Structure.bridge;
  Array.iteri
    (fun j a ->
      if a then
        emit
          (D.info ~code:"articulation-bus"
             ~loc:(Printf.sprintf "bus %d" (j + 1))
             "bus %d is an articulation point: its outage disconnects the grid"
             (j + 1)))
    s.Structure.articulation;
  let radial_lines =
    List.filter
      (fun i -> s.Structure.radial.(i))
      (List.init (N.n_lines grid) Fun.id)
  in
  (match radial_lines with
  | [] -> ()
  | ls ->
    let shown = List.filteri (fun i _ -> i < 8) ls in
    emit
      (D.info ~code:"radial-chain"
         "%d line(s) lie on radial chains (every one a bridge): %s%s"
         (List.length ls)
         (String.concat ", "
            (List.map (fun i -> string_of_int (i + 1)) shown))
         (if List.length ls > 8 then ", ..." else "")));
  List.rev !diags

let interval_diagnostics (spec : Grid.Spec.t) =
  let grid = spec.Grid.Spec.grid in
  match (cost_floor grid, cost_ceiling grid) with
  | Some floor, Some ceiling when Q.sign floor > 0 ->
    let max_pct =
      Q.mul (Q.of_int 100) (Q.div (Q.sub ceiling floor) floor)
    in
    let headroom =
      D.info ~code:"impact-ceiling"
        "any dispatch of the current demand costs within [%s, %s]; no \
         total-preserving attack can push the optimum above %s (at most \
         +%.2f%% over any attack-free optimum)"
        (Q.to_decimal_string ~digits:2 floor)
        (Q.to_decimal_string ~digits:2 ceiling)
        (Q.to_decimal_string ~digits:2 ceiling)
        (Q.to_float max_pct)
    in
    if Q.( < ) max_pct spec.Grid.Spec.min_increase_pct then
      [
        headroom;
        D.info ~code:"statically-safe"
          "the impact target I = %s%% exceeds the static ceiling %.2f%%: no \
           single-line attack can reach it, whatever the solver would say"
          (Q.to_decimal_string ~digits:2 spec.Grid.Spec.min_increase_pct)
          (Q.to_float max_pct);
      ]
    else [ headroom ]
  | Some _, Some _ -> []
  | _ ->
    [
      D.error ~code:"infeasible-demand"
        "total existing load is outside [sum pmin, sum pmax]: no dispatch \
         serves it, poisoned or not";
    ]

let run (spec : Grid.Spec.t) =
  Obs.Counter.incr obs_runs;
  let grid = spec.Grid.Spec.grid in
  let topo = Grid.Topology.make grid in
  let structure = Structure.analyze topo in
  D.sorted
    (structure_diagnostics grid structure
    @ interval_diagnostics spec
    @ criticality_diagnostics grid)
