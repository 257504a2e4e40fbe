module Q = Numeric.Rat
module N = Grid.Network

let check (spec : Grid.Spec.t) =
  let g = spec.Grid.Spec.grid in
  let diags = ref [] in
  let emit d = diags := d :: !diags in
  let b = g.N.n_buses in
  let bus_ok j = j >= 0 && j < b in
  (* lines *)
  let seen_pairs = Hashtbl.create 16 in
  Array.iteri
    (fun i (ln : N.line) ->
      let li = i + 1 in
      if not (bus_ok ln.N.from_bus && bus_ok ln.N.to_bus) then
        emit
          (Diagnostic.error ~code:"bus-range"
             "line %d connects bus %d to bus %d, outside 1..%d" li
             (ln.N.from_bus + 1) (ln.N.to_bus + 1) b)
      else begin
        if ln.N.from_bus = ln.N.to_bus then
          emit
            (Diagnostic.error ~code:"self-loop" "line %d is a self loop at bus %d"
               li (ln.N.from_bus + 1));
        let pair =
          (min ln.N.from_bus ln.N.to_bus, max ln.N.from_bus ln.N.to_bus)
        in
        (match Hashtbl.find_opt seen_pairs pair with
        | Some first ->
          emit
            (Diagnostic.warning ~code:"duplicate-line"
               "line %d duplicates line %d (buses %d-%d); parallel circuits \
                are folded into one admittance by the topology processor"
               li first (fst pair + 1) (snd pair + 1))
        | None -> Hashtbl.replace seen_pairs pair li)
      end;
      if Q.(ln.N.admittance <= zero) then
        emit
          (Diagnostic.error ~code:"nonpositive-admittance"
             "line %d has admittance %s; susceptances must be positive \
              (negative reactance corrupts every B-matrix minor)"
             li
             (Q.to_decimal_string ln.N.admittance));
      if Q.(ln.N.capacity <= zero) then
        emit
          (Diagnostic.error ~code:"nonpositive-capacity"
             "line %d has flow capacity %s <= 0" li
             (Q.to_decimal_string ln.N.capacity)))
    g.N.lines;
  (* generators *)
  let seen_gbus = Hashtbl.create 8 in
  Array.iteri
    (fun k (gn : N.gen) ->
      let ki = k + 1 in
      if not (bus_ok gn.N.gbus) then
        emit
          (Diagnostic.error ~code:"bus-range"
             "generator %d sits at bus %d, outside 1..%d" ki (gn.N.gbus + 1) b)
      else begin
        match Hashtbl.find_opt seen_gbus gn.N.gbus with
        | Some first ->
          emit
            (Diagnostic.error ~code:"duplicate-generator"
               "generator %d duplicates generator %d at bus %d" ki first
               (gn.N.gbus + 1))
        | None -> Hashtbl.replace seen_gbus gn.N.gbus ki
      end;
      if Q.(gn.N.pmin > gn.N.pmax) then
        emit
          (Diagnostic.error ~code:"gen-bounds"
             "generator %d at bus %d has pmin %s > pmax %s" ki (gn.N.gbus + 1)
             (Q.to_decimal_string gn.N.pmin)
             (Q.to_decimal_string gn.N.pmax))
      else if Q.(gn.N.pmin < zero) then
        emit
          (Diagnostic.warning ~code:"negative-pmin"
             "generator %d at bus %d has negative pmin %s" ki (gn.N.gbus + 1)
             (Q.to_decimal_string gn.N.pmin)))
    g.N.gens;
  (* loads *)
  let seen_lbus = Hashtbl.create 8 in
  Array.iteri
    (fun k (ld : N.load) ->
      let ki = k + 1 in
      if not (bus_ok ld.N.lbus) then
        emit
          (Diagnostic.error ~code:"bus-range"
             "load %d sits at bus %d, outside 1..%d" ki (ld.N.lbus + 1) b)
      else begin
        (match Hashtbl.find_opt seen_lbus ld.N.lbus with
        | Some first ->
          emit
            (Diagnostic.error ~code:"duplicate-load"
               "load %d duplicates load %d at bus %d; the attack model reads \
                one load record per bus (Eq. 36)"
               ki first (ld.N.lbus + 1))
        | None -> Hashtbl.replace seen_lbus ld.N.lbus ki);
        if Q.(ld.N.lmin > ld.N.lmax) then
          emit
            (Diagnostic.error ~code:"load-bounds"
               "load %d at bus %d has lmin %s > lmax %s (Eq. 36 interval is \
                empty: every attack encoding over this bus is vacuously unsat)"
               ki (ld.N.lbus + 1)
               (Q.to_decimal_string ld.N.lmin)
               (Q.to_decimal_string ld.N.lmax))
        else if Q.(ld.N.existing < ld.N.lmin) || Q.(ld.N.existing > ld.N.lmax)
        then
          emit
            (Diagnostic.warning ~code:"load-outside-range"
               "load %d at bus %d: existing load %s lies outside its plausible \
                range [%s, %s]"
               ki (ld.N.lbus + 1)
               (Q.to_decimal_string ld.N.existing)
               (Q.to_decimal_string ld.N.lmin)
               (Q.to_decimal_string ld.N.lmax))
      end)
    g.N.loads;
  (* measurement vector shape *)
  if Array.length g.N.meas <> N.n_meas g then
    emit
      (Diagnostic.error ~code:"meas-count"
         "measurement section has %d entries; a system with %d lines and %d \
          buses needs 2l+b = %d"
         (Array.length g.N.meas) (N.n_lines g) b (N.n_meas g));
  (* connectivity of the true topology, from the reference bus *)
  if b > 0 then begin
    let adj = Array.make b [] in
    Array.iter
      (fun (ln : N.line) ->
        if ln.N.in_true_topology && bus_ok ln.N.from_bus && bus_ok ln.N.to_bus
        then begin
          adj.(ln.N.from_bus) <- ln.N.to_bus :: adj.(ln.N.from_bus);
          adj.(ln.N.to_bus) <- ln.N.from_bus :: adj.(ln.N.to_bus)
        end)
      g.N.lines;
    if adj.(0) = [] && b > 1 then
      emit
        (Diagnostic.error ~code:"reference-bus"
           "reference bus 1 has no line in the true topology; angles cannot \
            be referenced against it")
    else begin
      let visited = Array.make b false in
      let rec dfs j =
        if not visited.(j) then begin
          visited.(j) <- true;
          List.iter dfs adj.(j)
        end
      in
      dfs 0;
      let islanded =
        List.filter (fun j -> not visited.(j)) (List.init b Fun.id)
      in
      if islanded <> [] then
        emit
          (Diagnostic.error ~code:"islanded-bus"
             "bus(es) %s unreachable from the reference bus through the true \
              topology; the B matrix is singular and power flow undefined"
             (String.concat ", "
                (List.map (fun j -> string_of_int (j + 1)) islanded)))
    end
  end;
  (* generation / load balance sanity *)
  let total_load = N.total_load g in
  let cap_max =
    Array.fold_left (fun acc (gn : N.gen) -> Q.add acc gn.N.pmax) Q.zero g.N.gens
  in
  let cap_min =
    Array.fold_left (fun acc (gn : N.gen) -> Q.add acc gn.N.pmin) Q.zero g.N.gens
  in
  if Q.(cap_max < total_load) then
    emit
      (Diagnostic.error ~code:"capacity-shortfall"
         "total generation capacity %s cannot serve the existing load %s; \
          the base-case OPF is structurally infeasible"
         (Q.to_decimal_string cap_max)
         (Q.to_decimal_string total_load));
  if Q.(cap_min > total_load) then
    emit
      (Diagnostic.error ~code:"forced-overgeneration"
         "minimum total generation %s exceeds the existing load %s; nodal \
          balance cannot hold"
         (Q.to_decimal_string cap_min)
         (Q.to_decimal_string total_load));
  if spec.Grid.Spec.max_meas = max_int && spec.Grid.Spec.max_buses = max_int
  then
    emit
      (Diagnostic.info ~code:"no-attacker-resources"
         "no attacker resource section: measurement and bus budgets are \
          unlimited");
  List.rev !diags
