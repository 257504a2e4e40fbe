module Q = Numeric.Rat
module Solver = Smt.Solver
module N = Grid.Network

type opf_backend = Lp_exact | Smt_bounded | Fast_factors

exception Interrupted

let obs_iterations = Obs.Counter.make "attack.loop.iterations"
let obs_candidates = Obs.Counter.make "attack.loop.candidates"
let obs_blocked = Obs.Counter.make "attack.loop.blocked"
let obs_analyze_hist = Obs.Histogram.make "attack.analyze.seconds"
let obs_verify_hist = Obs.Histogram.make "attack.verify.seconds"
let obs_sweep_reused = Obs.Counter.make "attack.sweep.reused_verifications"
let obs_sweep_targets = Obs.Counter.make "attack.sweep.targets"
let obs_audit_pruned = Obs.Counter.make "audit.pruned"
let obs_audit_pruned_islanding = Obs.Counter.make "audit.pruned.islanding"
let obs_audit_pruned_interval = Obs.Counter.make "audit.pruned.interval"
let obs_audit_pruned_ceiling = Obs.Counter.make "audit.pruned.ceiling"
let obs_audit_unsound = Obs.Counter.make "audit.prune.unsound"

type config = {
  mode : Attack.Encoder.mode;
  precision : int;
  max_candidates : int;
  backend : opf_backend;
  max_topology_changes : int option;
  use_closed_form : bool;
      (* enumerate single-line vectors with Attack.Single_line instead of
         the SMT model; only applies to Topology_only with
         max_topology_changes = Some 1 *)
  jobs : int;
      (* verification parallelism for the closed-form path; <= 1 is
         sequential, 0 would also be sequential (use Pool.default_jobs ()
         explicitly for the machine's recommended width) *)
  interrupt : (unit -> bool) option;
      (* cooperative cancellation/timeout probe, checked between solver
         iterations and candidate verifications *)
  store : Store.Cache.t option;
      (* content-addressed cache for the per-candidate OPF verifications *)
  audit : bool;
      (* solver-free static pre-pass on the closed-form path: bridge
         exclusions and candidates whose poisoned optimum provably stays
         below the threshold are pruned before any OPF solve *)
  audit_cross_check : bool;
      (* solve statically pruned candidates anyway and assert the prune
         was right (counter audit.prune.unsound); for soundness testing *)
}

let default_config =
  {
    mode = Attack.Encoder.Topology_only;
    precision = 2;
    max_candidates = 200;
    (* certified float OPF (Float_opf over Certify): the fastest
       backend is now exact at every system size, so it is the default *)
    backend = Fast_factors;
    max_topology_changes = None;
    use_closed_form = false;
    jobs = 1;
    interrupt = None;
    store = None;
    audit = true;
    audit_cross_check = false;
  }

type success = {
  vector : Attack.Vector.t;
  base_cost : Q.t;
  threshold : Q.t;
  poisoned_cost : Q.t option;
  candidates : int;
}

type outcome =
  | Attack_found of success
  | No_attack of { candidates : int }
  | Base_infeasible of string

let check_interrupt config =
  match config.interrupt with
  | Some probe -> if probe () then raise Interrupted
  | None -> ()

(* Installs the interrupt hook as this domain's solver probe for the
   duration of an analysis: simplex pivot loops and sparse LU steps call
   [Obs.Probe.poll], so a cooperative cancel lands inside a long solve
   (e.g. the exact base OPF of a large case) rather than after it. *)
let with_interrupt_probe config body =
  match config.interrupt with
  | None -> body ()
  | Some _ -> Obs.Probe.with_ (fun () -> check_interrupt config) body

let threshold_of ~base_cost pct =
  Q.mul base_cost (Q.add Q.one (Q.div pct (Q.of_int 100)))

(* ---- verification store (partial reuse across scenarios) ----

   The poisoned optimum depends only on the grid, the mapped topology and
   the shifted loads — not on the threshold — so for the exact backends a
   verification can be answered from the store and compared against any
   threshold.  The SMT backend's bounded query is threshold-dependent and
   bypasses the store. *)

(* a rational as [Q.to_string] prints it, or None — a zero denominator
   included, so a malformed store value (a peer's [sync] inserts values
   without decoding them) is a miss, never a crash *)
let rat_of_string s =
  let num, den =
    match String.split_on_char '/' s with
    | [ n ] -> (n, "1")
    | [ n; d ] -> (n, d)
    | _ -> ("", "")
  in
  match Q.make (Numeric.Bigint.of_string num) (Numeric.Bigint.of_string den) with
  | q -> Some q
  | exception (Invalid_argument _ | Division_by_zero) -> None

(* "cost <num[/den]>" | "noconv" *)
let encode_verdict = function
  | `Cost c -> "cost " ^ Q.to_string c
  | `NoConv -> "noconv"

let decode_verdict s =
  match String.split_on_char ' ' s with
  | [ "noconv" ] -> Some `NoConv
  | [ "cost"; q ] -> Option.map (fun c -> `Cost c) (rat_of_string q)
  | _ -> None

(* the one store memo behind verify: and base: entries.  A value that
   fails to decode is removed before the fresh one is added: [add] keeps
   a resident key, so the bad value would otherwise be re-solved on every
   lookup and keep being served to peers *)
let memoize store key ~encode ~decode solve =
  let raw = Store.Cache.find store key in
  match Option.bind raw decode with
  | Some v -> v
  | None ->
    if raw <> None then Store.Cache.remove store key;
    let v = solve () in
    Store.Cache.add store ~key ~value:(encode v);
    v

(* The angle formulation (the exact LP and SMT backends) and the PTDF one
   (Fast_factors) never share a store entry: their optima differ by about
   a part in 10^6 (docs/certification.md), and an answer must not depend
   on which backend filled the store first. *)
let formulation = function
  | Fast_factors -> `Ptdf
  | Lp_exact | Smt_bounded -> `Angle

let formulation_tag = function `Angle -> "angle" | `Ptdf -> "ptdf"

(* the key is a canonical serialisation of the poisoned instance itself
   (each line carries its mapped bit through the content sort), so two
   .grid files that are row permutations of each other share entries for
   the same physical topology — and never for different ones *)
let verify_store_key config grid (vec : Attack.Vector.t) =
  match config.store with
  | Some store when config.backend <> Smt_bounded ->
    Some
      ( store,
        "verify:"
        ^ Store.Canonical.verify_key
            ~backend:(formulation_tag (formulation config.backend))
            ~mapped:vec.Attack.Vector.mapped ~loads:vec.Attack.Vector.est_loads
            grid )
  | _ -> None

(* the poisoned optimum through an exact backend, as a store verdict *)
let exact_verdict backend grid (vec : Attack.Vector.t) =
  let topo = Grid.Topology.make ~mapped:vec.Attack.Vector.mapped grid in
  let loads = vec.Attack.Vector.est_loads in
  let solve =
    match backend with
    | Fast_factors -> Opf.Float_opf.solve
    | Lp_exact | Smt_bounded -> Opf.Dc_opf.solve
  in
  match solve ~loads topo with
  | Opf.Dc_opf.Dispatch d -> `Cost d.Opf.Dc_opf.cost
  | Opf.Dc_opf.Infeasible | Opf.Dc_opf.Unbounded -> `NoConv

let exact_verdict_cached config grid vec =
  let solve () = exact_verdict config.backend grid vec in
  match verify_store_key config grid vec with
  | None -> solve ()
  | Some (store, key) ->
    memoize store key ~encode:encode_verdict ~decode:decode_verdict solve

(* ---- the attack-free OPF, once per store ----

   T* depends on the grid alone, so with a store each formulation is
   solved once and every later analysis of the grid reads it from a
   base: entry, kept per formulation like verify: entries (the service's
   OPF base state reads the PTDF one).  The key folds in the file's row
   ordering because [pg] is indexed by generator row.  The value carries
   exactly what the analysis reads. *)

type base_opf = [ `Optimal of Q.t * Q.t array | `Infeasible | `Unbounded ]

let base_store_key form grid =
  let tag = formulation_tag form in
  let loads = N.bus_demand grid in
  String.concat ":"
    [
      "base";
      tag;
      Store.Canonical.verify_key ~backend:tag ~mapped:(N.true_topology grid)
        ~loads grid;
      Store.Canonical.ordering grid;
    ]

(* "infeasible" | "unbounded" | "optimal <cost> <pg_0> .. <pg_k-1>" *)
let encode_base : base_opf -> string = function
  | `Infeasible -> "infeasible"
  | `Unbounded -> "unbounded"
  | `Optimal (cost, pg) ->
    String.concat " " ("optimal" :: List.map Q.to_string (cost :: Array.to_list pg))

let decode_base grid s : base_opf option =
  match String.split_on_char ' ' s with
  | [ "infeasible" ] -> Some `Infeasible
  | [ "unbounded" ] -> Some `Unbounded
  | "optimal" :: fields -> (
    (* the cost, then one set-point per generator row *)
    let rats = List.filter_map rat_of_string fields in
    match rats with
    | cost :: pg
      when List.length rats = List.length fields
           && List.length pg = Array.length grid.N.gens ->
      Some (`Optimal (cost, Array.of_list pg))
    | _ -> None)
  | _ -> None

let solve_base form grid : base_opf =
  let outcome =
    match form with
    | `Angle -> Opf.Dc_opf.base_case grid
    | `Ptdf -> Opf.Float_opf.solve (Grid.Topology.make grid)
  in
  match outcome with
  | Opf.Dc_opf.Dispatch d -> `Optimal (d.Opf.Dc_opf.cost, d.Opf.Dc_opf.pg)
  | Opf.Dc_opf.Infeasible -> `Infeasible
  | Opf.Dc_opf.Unbounded -> `Unbounded

let base_opf ?store form grid =
  let solve () = solve_base form grid in
  match store with
  | None -> solve ()
  | Some store ->
    memoize store (base_store_key form grid) ~encode:encode_base
      ~decode:(decode_base grid) solve

(* the one resolution of an analysis' observed operating point: the
   calibrated dispatch on the 5-bus case study, the PTDF OPF optimum
   elsewhere *)
let base_state ?store kind grid =
  let of_opf () =
    match base_opf ?store `Ptdf grid with
    | `Infeasible -> Error "base OPF infeasible"
    | `Unbounded -> Error "base OPF unbounded"
    | `Optimal (_, pg) -> Attack.Base_state.of_generators grid ~pg
  in
  match kind with
  | `Opf -> of_opf ()
  | `Proportional -> Attack.Base_state.proportional grid
  | `Case_study when grid.N.n_buses = 5 ->
    Attack.Base_state.of_dispatch grid
      ~gen:(Grid.Test_systems.case_study_base_dispatch ())
  | `Case_study -> of_opf ()

(* ---- verification ----

   A verdict on a candidate's poisoned OPF: with an exact backend its
   optimum or no convergence, neither depending on the threshold; with
   [Smt_bounded] whether Eqs. 37/38 hold at the threshold asked. *)
type verdict = [ `Cost of Q.t | `NoConv | `Bounded of bool ]

(* the attack achieves the impact iff no dispatch beats the threshold
   (Eq. 37) while the OPF still converges (Eq. 38) *)
let succeeds threshold : verdict -> bool = function
  | `Cost c -> Q.( >= ) c threshold
  | `Bounded b -> b
  | `NoConv -> false

(* the operator runs OPF on the poisoned topology and the shifted loads *)
let verify config grid (vec : Attack.Vector.t) ~threshold : verdict =
  Obs.Trace.with_span "impact.verify"
    ~args:[ ("threshold", Q.to_string threshold) ]
  @@ fun () ->
  Obs.Histogram.time obs_verify_hist @@ fun () ->
  match config.backend with
  | Lp_exact | Fast_factors -> (exact_verdict_cached config grid vec :> verdict)
  | Smt_bounded -> (
    (* Eq. 37: unsat below the threshold; Eq. 38: sat with a loose budget *)
    let topo = Grid.Topology.make ~mapped:vec.Attack.Vector.mapped grid in
    let loads = vec.Attack.Vector.est_loads in
    match Opf.Smt_opf.feasible ~loads topo ~budget:threshold with
    | `Sat -> `Bounded false
    | `Unsat -> (
      let loose = Q.mul threshold (Q.of_int 1000) in
      match Opf.Smt_opf.feasible ~loads topo ~budget:loose with
      | `Sat -> `Bounded true
      | `Unsat -> `NoConv))

let attack_found ~base_cost ~threshold vector (verdict : verdict) candidates =
  let poisoned_cost = match verdict with `Cost c -> Some c | _ -> None in
  Attack_found { vector; base_cost; threshold; poisoned_cost; candidates }

(* the enumeration budget applies on both paths: the SMT enumeration
   stops after [max_candidates] queries, and the closed-form scan is cut
   to the same prefix of the ranked candidate list *)
let truncate_candidates config candidates =
  let rec take n = function
    | [] -> []
    | _ when n <= 0 -> []
    | c :: rest -> c :: take (n - 1) rest
  in
  take config.max_candidates candidates

(* ---- the solver-free audit pre-pass (closed-form path) ----

   Static verdicts per candidate, before any OPF runs:

   - [`Islanding]: the excluded line is a bridge, so the poisoned
     shift-factor OPF cannot converge.  Only claimed for Fast_factors —
     the angle formulation can remain feasible per-island.
   - [`Interval]: the attack-free dispatch still fits every line
     capacity on the poisoned instance (PTDF/LODF check with a margin
     covering the certified backend's 1e-6 PTDF rounding), so the
     poisoned optimum is at most [base_cost] — claimed only when the
     threshold is strictly above it.
   - [`Ceiling]: the threshold exceeds the exact box-and-balance cost
     ceiling, which no total-preserving dispatch can beat on any
     topology — every candidate is statically blocked.

   Each claim implies the candidate cannot verify as a success, so
   pruning never changes the outcome, the winning vector or the
   poisoned cost; [audit_cross_check] solves anyway and asserts that. *)

type static_verdict = [ `Islanding | `Interval | `Ceiling ]

(* cross-check mode: solve a pruned candidate after all and verify the
   static claim.  Only meaningful for the exact backends (the SMT
   verdict is threshold-bound); a disagreement — the solver finding a
   success the audit pruned — bumps audit.prune.unsound. *)
let audit_cross_check config ~grid ~threshold vec (claim : static_verdict) =
  if config.audit_cross_check && config.backend <> Smt_bounded then begin
    let verdict = exact_verdict_cached config grid vec in
    let agree =
      match (claim, verdict) with
      | `Islanding, `NoConv -> true
      | `Islanding, `Cost _ -> false
      | (`Interval | `Ceiling), `NoConv -> true
      | (`Interval | `Ceiling), `Cost c -> Q.( < ) c threshold
    in
    if not agree then Obs.Counter.incr obs_audit_unsound
  end

(* ---- the closed-form scan ----

   Single-line attacks enumerated in closed form (the paper's LODF-era
   fast path), no SMT involved, scanned once per distinct threshold:

   - the candidate list is cut and classified by the audit once, for
     every threshold;
   - each threshold's scan is one [Pool.find_mapi_first] over the
     unpruned positions, on one pool of [config.jobs] domains: the
     lowest-position success wins, exactly as in the sequential loop;
   - with an exact backend each candidate's verdict is memoised, so a
     candidate is verified at most once across thresholds;
   - the outcome and the loop and audit counters are taken by position,
     up to where the scan stopped, so they do not depend on how many
     verifications pool workers past the winner had already started. *)
let closed_form_scan config ~scenario ~base ~base_pg ~base_cost thresholds =
  let grid = scenario.Grid.Spec.grid in
  let candidates =
    truncate_candidates config (Attack.Single_line.all_feasible ~scenario ~base)
  in
  let vectors = Array.of_list (List.map (fun (_, _, vec) -> vec) candidates) in
  let n = Array.length vectors in
  let ceiling = if config.audit && n > 0 then Audit.cost_ceiling grid else None in
  let above_ceiling t =
    match ceiling with Some u -> Q.( > ) t u | None -> false
  in
  let statics =
    if not config.audit || n = 0 || List.for_all above_ceiling thresholds then
      Array.make n None
    else
      Audit.classify ~grid ~base_dispatch:base_pg
        ~islanding_sound:(config.backend = Fast_factors)
        ~interval_active:(List.exists (fun t -> Q.( > ) t base_cost) thresholds)
        ~candidates
      |> List.map (function
           | Audit.Solve -> None
           | Audit.Prune_islanding -> Some `Islanding
           | Audit.Prune_interval -> Some `Interval)
      |> Array.of_list
  in
  (* the interval claim (poisoned optimum <= base cost) prunes only at
     thresholds strictly above the base cost *)
  let claim threshold i : static_verdict option =
    match statics.(i) with
    | Some `Interval when Q.( > ) threshold base_cost -> Some `Interval
    | Some `Islanding -> Some `Islanding
    | _ -> if above_ceiling threshold then Some `Ceiling else None
  in
  let memoise = config.backend <> Smt_bounded in
  let memo = Array.make n None in
  let passed = Array.make n false in
  let pruned = Array.make n false in
  Pool.with_pool ~jobs:config.jobs @@ fun pool ->
  let scan threshold =
    let claims = Array.init n (claim threshold) in
    let unpruned = List.filter (fun i -> Option.is_none claims.(i)) (List.init n Fun.id) in
    let check _ i =
      let verdict =
        match memo.(i) with
        | Some v -> v
        | None ->
          check_interrupt config;
          let v =
            Obs.Trace.with_span "impact.candidate"
              ~args:[ ("index", string_of_int i) ]
              (fun () -> verify config grid vectors.(i) ~threshold)
          in
          if memoise then memo.(i) <- Some v;
          v
      in
      if succeeds threshold verdict then Some (i, verdict) else None
    in
    let winner = Pool.find_mapi_first pool ~f:check unpruned in
    let stop = match winner with Some (w, _) -> w + 1 | None -> n in
    for i = 0 to stop - 1 do
      match claims.(i) with
      | Some claim ->
        (* a pruned candidate counts as examined, so the outcome is
           identical with the audit on or off *)
        if not pruned.(i) then begin
          pruned.(i) <- true;
          Obs.Counter.incr obs_audit_pruned;
          Obs.Counter.incr
            (match claim with
            | `Islanding -> obs_audit_pruned_islanding
            | `Interval -> obs_audit_pruned_interval
            | `Ceiling -> obs_audit_pruned_ceiling);
          audit_cross_check config ~grid ~threshold vectors.(i) claim
        end
      | None when passed.(i) && memoise -> Obs.Counter.incr obs_sweep_reused
      | None ->
        passed.(i) <- true;
        Obs.Counter.incr obs_iterations;
        Obs.Counter.incr obs_candidates;
        if i + 1 < stop || Option.is_none winner then Obs.Counter.incr obs_blocked
    done;
    match winner with
    | Some (w, verdict) ->
      attack_found ~base_cost ~threshold vectors.(w) verdict (w + 1)
    | None -> No_attack { candidates = n }
  in
  List.map (fun t -> (t, scan t)) thresholds

let closed_form_applies config =
  config.use_closed_form
  && config.mode = Attack.Encoder.Topology_only
  && config.max_topology_changes = Some 1

(* ---- the SMT enumeration ----

   Ask the attack model for a stealthy candidate, hand it to [visit], and
   block it (at [config.precision] digits) unless [visit] accepts it.
   Returns why the enumeration ended — [`Accepted], [`Exhausted] (unsat:
   no stealthy candidate is left) or [`Budget] ([max_candidates] queries
   ran out) — with the number of candidates examined. *)
let enumerate config ~scenario ~solver ~vars visit =
  let rec go n =
    if n >= config.max_candidates then (`Budget, n)
    else begin
      check_interrupt config;
      Obs.Counter.incr obs_iterations;
      match Solver.check solver with
      | `Unsat -> (`Exhausted, n)
      | `Sat -> (
        Obs.Counter.incr obs_candidates;
        let vec = Attack.Vector.of_model solver vars scenario in
        match
          Obs.Trace.with_span "impact.candidate"
            ~args:[ ("index", string_of_int n) ]
            (fun () -> visit vec)
        with
        | Some accepted -> (`Accepted accepted, n + 1)
        | None ->
          Obs.Counter.incr obs_blocked;
          Solver.assert_form solver
            (Attack.Vector.blocking_clause ~precision:config.precision vars vec);
          go (n + 1))
    end
  in
  go 0

let encode config ~scenario ~base =
  let solver = Solver.create () in
  let vars =
    Attack.Encoder.encode ?max_topology_changes:config.max_topology_changes
      solver ~mode:config.mode ~scenario ~base
  in
  (solver, vars)

(* One solver and one encoding serve every threshold, in ascending
   order: a candidate blocked at threshold T has a poisoned optimum
   below T, hence below any larger threshold, so the accumulated
   blocking clauses stay valid. *)
let smt_scan config ~scenario ~base ~base_cost thresholds =
  let grid = scenario.Grid.Spec.grid in
  let solver, vars = encode config ~scenario ~base in
  List.map
    (fun threshold ->
      let accept vec =
        let verdict = verify config grid vec ~threshold in
        if succeeds threshold verdict then Some (vec, verdict) else None
      in
      match enumerate config ~scenario ~solver ~vars accept with
      | `Accepted (vec, verdict), n ->
        (threshold, attack_found ~base_cost ~threshold vec verdict n)
      | (`Exhausted | `Budget), n -> (threshold, No_attack { candidates = n }))
    (List.sort Q.compare thresholds)

(* ---- analyses ----

   Everything threshold-independent is computed once per call: the
   attack-free OPF, the candidate enumeration (closed form) or the
   encoding (SMT), and with an exact backend each candidate's poisoned
   optimum.  Each distinct threshold is answered once; a repeated target
   shares its outcome. *)
let outcomes config ~(scenario : Grid.Spec.t) ~base increases =
  Obs.Histogram.time obs_analyze_hist @@ fun () ->
  with_interrupt_probe config @@ fun () ->
  check_interrupt config;
  let grid = scenario.Grid.Spec.grid in
  match base_opf ?store:config.store (formulation config.backend) grid with
  | `Infeasible ->
    List.map (fun pct -> (pct, Base_infeasible "attack-free OPF infeasible")) increases
  | `Unbounded ->
    List.map (fun pct -> (pct, Base_infeasible "attack-free OPF unbounded")) increases
  | `Optimal (base_cost, base_pg) ->
    let thresholds = List.map (threshold_of ~base_cost) increases in
    let distinct =
      List.fold_left
        (fun acc t -> if List.exists (Q.equal t) acc then acc else t :: acc)
        [] thresholds
      |> List.rev
    in
    let answered =
      if closed_form_applies config then
        closed_form_scan config ~scenario ~base ~base_pg ~base_cost distinct
      else smt_scan config ~scenario ~base ~base_cost distinct
    in
    List.map2
      (fun pct t -> (pct, snd (List.find (fun (t', _) -> Q.equal t t') answered)))
      increases thresholds

let analyze ?(config = default_config) ~(scenario : Grid.Spec.t)
    ~(base : Attack.Base_state.t) () =
  Obs.Trace.with_span "impact.analyze" @@ fun () ->
  snd (List.hd (outcomes config ~scenario ~base [ scenario.Grid.Spec.min_increase_pct ]))

let analyze_sweep ?(config = default_config) ~(scenario : Grid.Spec.t)
    ~(base : Attack.Base_state.t) ~increases () =
  Obs.Trace.with_span "impact.sweep" @@ fun () ->
  Obs.Counter.add obs_sweep_targets (List.length increases);
  outcomes config ~scenario ~base increases

let max_achievable_increase ?(config = default_config)
    ~(scenario : Grid.Spec.t) ~(base : Attack.Base_state.t) () =
  with_interrupt_probe config @@ fun () ->
  let grid = scenario.Grid.Spec.grid in
  match base_opf ?store:config.store (formulation config.backend) grid with
  | `Infeasible | `Unbounded -> None
  | `Optimal (base_cost, _) ->
    let solver, vars = encode config ~scenario ~base in
    (* every candidate is blocked: the search is exhaustive *)
    let best = ref None in
    ignore
      (enumerate config ~scenario ~solver ~vars (fun vec ->
           (match (exact_verdict_cached config grid vec, !best) with
           | `Cost c, Some b when Q.( >= ) b c -> ()
           | `Cost c, _ -> best := Some c
           | `NoConv, _ -> ());
           None));
    Option.map
      (fun c ->
        Q.mul (Q.of_int 100) (Q.div (Q.sub c base_cost) base_cost))
      !best
