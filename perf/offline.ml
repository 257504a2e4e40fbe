(* The offline workloads: sequential [Impact.analyze] calls on one
   domain over a seeded scenario set, cycled until the run's seconds
   are spent.

   - impact-smt-57 enumerates candidates with the SMT attack model; the
     solver's check dominates and verification is the smaller part.
   - impact-closed-118 enumerates single-line candidates in closed form,
     so no SMT runs at all; verification (topology, LU, PTDF rows, LP,
     certificate) is nearly all of the time.

   An SMT-only change should move the first and not the second, and a
   verification-only change the other way round. *)

module Q = Numeric.Rat
module I = Topoguard.Impact
open Report

type workload = {
  grid_file : string;
  draws : seed:int -> int array;
      (* the [randomize_scenario] seed of every scenario, in run order *)
  shape : int -> Grid.Spec.t -> Grid.Spec.t;
      (* a scenario's impact target, and budgets where the workload fixes
         them, from its draw, over the randomised spec *)
  config : I.config;
  cross_check : scenario:Grid.Spec.t -> base:Attack.Base_state.t -> I.outcome;
      (* the same question through another code path that must answer
         it identically *)
}

let smt_57 =
  let config = I.default_config in
  {
    grid_file = "data/57.grid";
    (* A fixed set of 24 scenarios, in an order drawn from the seed.  Their
       budgets walk the pairs of 2..5 substations and 6..16 measurements,
       so an analysis examines from 0 to 17 SMT candidates; with costs this
       uneven, a set drawn afresh per seed moved the median analysis by a
       fifth from seed to seed.  Figures count whole passes, so the order
       does not change them. *)
    draws =
      (fun ~seed ->
        let a = Array.init 24 Fun.id in
        let rng = Random.State.make [| seed |] in
        for i = Array.length a - 1 downto 1 do
          let j = Random.State.int rng (i + 1) in
          let t = a.(i) in
          a.(i) <- a.(j);
          a.(j) <- t
        done;
        a);
    shape =
      (fun d spec ->
        {
          spec with
          Grid.Spec.max_buses = 2 + (d mod 4);
          max_meas = 6 + (2 * (d / 4));
          min_increase_pct = Q.of_int 2;
        });
    config;
    (* the SMT path ignores the audit; its second route is the sweep,
       which shares one solver and encoding across targets *)
    cross_check =
      (fun ~scenario ~base ->
        match
          I.analyze_sweep ~config ~scenario ~base
            ~increases:[ scenario.Grid.Spec.min_increase_pct ] ()
        with
        | [ (_, o) ] -> o
        | _ -> I.Base_infeasible "sweep returned no single outcome");
  }

let closed_118 =
  let config =
    {
      I.default_config with
      I.use_closed_form = true;
      max_topology_changes = Some 1;
      jobs = 1;
      audit = true;
    }
  in
  let targets = [| Q.of_ints 1 2; Q.one; Q.of_int 2; Q.of_int 5 |] in
  {
    grid_file = "data/118.grid";
    (* 20 scenarios drawn afresh per seed: single-line analyses of this
       grid cost about the same whatever the budgets *)
    draws = (fun ~seed -> Array.init 20 (fun i -> (seed * 7919) + i));
    shape =
      (fun d spec ->
        { spec with Grid.Spec.min_increase_pct = targets.(d mod Array.length targets) });
    config;
    (* pruning must never change an outcome *)
    cross_check =
      (fun ~scenario ~base ->
        I.analyze ~config:{ config with I.audit = false } ~scenario ~base ());
  }

(* Parse every scenario from the grid file and compute its base state:
   the set-up a user pays before the first analysis. *)
let setup w ~seed ~scenarios =
  let text = read_file w.grid_file in
  let draws = w.draws ~seed in
  Array.init (min scenarios (Array.length draws)) (fun i ->
      let spec =
        match Grid.Spec.parse text with
        | Ok s -> s
        | Error e -> failwith (w.grid_file ^ ": " ^ e)
      in
      let d = draws.(i) in
      let scenario = w.shape d (Topoguard.Evaluation.randomize_scenario ~seed:d spec) in
      match Attack.Base_state.of_opf scenario.Grid.Spec.grid with
      | Ok base -> (scenario, base)
      | Error e -> failwith (w.grid_file ^ ": base state: " ^ e))

(* a problem with one answer, judged without a reference *)
let inconsistency w (scenario : Grid.Spec.t) = function
  | I.Base_infeasible e -> Some ("base infeasible: " ^ e)
  | I.No_attack { candidates } ->
    if candidates < 0 || candidates > w.config.I.max_candidates then
      Some "candidate count outside the budget"
    else None
  | I.Attack_found s ->
    let expected =
      Q.mul s.I.base_cost
        (Q.add Q.one (Q.div scenario.Grid.Spec.min_increase_pct (Q.of_int 100)))
    in
    if not (Q.equal s.I.threshold expected) then Some "threshold is not T*(1 + I/100)"
    else if s.I.candidates < 1 || s.I.candidates > w.config.I.max_candidates then
      Some "candidate count outside the budget"
    else (
      match s.I.poisoned_cost with
      | Some c when Q.( < ) c s.I.threshold -> Some "poisoned optimum below the threshold"
      | _ -> None)

type answer = { index : int; traced : bool; seconds : float; outcome : I.outcome }

(* Analyses back to back, cycling through the scenarios, until [seconds]
   have passed (the last one started runs to completion).  With
   [traced], each scenario is analysed twice in a row, plainly and then
   through [traced], so the tracing overhead compares equal inputs. *)
let drive ?traced w scenarios ~seconds =
  let n = Array.length scenarios in
  (* the set-ups' garbage is not collected inside the window *)
  Gc.full_major ();
  let t0 = Unix.gettimeofday () in
  let step = if traced = None then 1 else 2 in
  let rec go call acc =
    if call > 0 && call mod step = 0 && Unix.gettimeofday () -. t0 >= seconds then
      List.rev acc
    else begin
      let index = call / step in
      let scenario, base = scenarios.(index mod n) in
      let analyze () = I.analyze ~config:w.config ~scenario ~base () in
      let wrap = if call mod step = 1 then traced else None in
      let s0 = Unix.gettimeofday () in
      let outcome = match wrap with Some f -> f analyze | None -> analyze () in
      let seconds = Unix.gettimeofday () -. s0 in
      go (call + 1) ({ index; traced = wrap <> None; seconds; outcome } :: acc)
    end
  in
  go 0 []

(* Correctness of a run: each answer is self-consistent, a repeated
   scenario is answered exactly as the first time, and scenario 0 agrees
   with its cross-check.  Returns the first pass's verdicts in scenario
   order and the problems found. *)
let judge w scenarios answers ~force_mismatch =
  let n = Array.length scenarios in
  let first = Array.make n None in
  let problems = ref [] in
  let problem fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter
    (fun a ->
      let idx = a.index mod n in
      let v = verdict_of_outcome a.outcome in
      let v = if force_mismatch && a.index = 0 then "forced mismatch" else v in
      (match inconsistency w (fst scenarios.(idx)) a.outcome with
      | Some p -> problem "scenario %d: %s" idx p
      | None -> ());
      match first.(idx) with
      | None -> first.(idx) <- Some v
      | Some v0 -> if v0 <> v then problem "scenario %d answered differently on repeat" idx)
    answers;
  let scenario, base = scenarios.(0) in
  let cross = verdict_of_outcome (w.cross_check ~scenario ~base) in
  (match first.(0) with
  | Some v when v <> cross ->
    problem "scenario 0: %S but the cross-check says %S" v cross
  | _ -> ());
  let verdicts = List.filter_map Fun.id (Array.to_list first) in
  (verdicts, List.rev !problems)

(* Layer times of the traced calls: each runs inside a bench.analyze
   span with timers and spans on, and its trace and registry deltas are
   folded in right after it. *)
type traced = {
  mutable solver : Spans.solver;
  mutable analyzed : float;  (* summed bench.analyze spans *)
  counters : (string, float) Hashtbl.t;
  hists : (string, float) Hashtbl.t;  (* histogram sums *)
}

let add tbl name v = Hashtbl.replace tbl name (v +. Option.value ~default:0. (Hashtbl.find_opt tbl name))

let traced_call t f =
  Obs.Trace.clear ();
  let before = Obs.snapshot () in
  Obs.set_enabled true;
  Obs.Trace.set_enabled true;
  let r =
    Fun.protect
      ~finally:(fun () ->
        Obs.Trace.set_enabled false;
        Obs.set_enabled false)
      (fun () -> Obs.Trace.with_span "bench.analyze" f)
  in
  let d = Obs.diff ~before ~after:(Obs.snapshot ()) in
  List.iter (fun (n, v) -> add t.counters n (float_of_int v)) d.Obs.counters;
  List.iter (fun (n, h) -> add t.hists n h.Obs.h_sum) d.Obs.histograms;
  let spans = Spans.of_trace (Obs.Trace.export_json ()) in
  t.solver <- Spans.add_solver t.solver (Spans.solver spans);
  t.analyzed <- t.analyzed +. Spans.total spans "bench.analyze";
  r

(* this process's major-heap high-water mark *)
let heap_peak_mb () =
  float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6

let run w ~seed ~seconds ~trace ~setups ~scenarios ~force_mismatch =
  let setup_times, scenarios =
    repeat_timed setups ~discard:ignore (fun () -> setup w ~seed ~scenarios)
  in
  if not trace then begin
    let answers = drive w scenarios ~seconds in
    let verdicts, problems = judge w scenarios answers ~force_mismatch in
    (* Scenario costs differ several-fold, so the figures count whole
       passes over the scenario set when the run completed one: how far
       a partial pass got would otherwise change the mix being measured
       with the speed of the machine. *)
    let pass = Array.length scenarios in
    let whole = List.length answers / pass * pass in
    let measured = if whole > 0 then List.filteri (fun i _ -> i < whole) answers else answers in
    let lat = List.map (fun a -> a.seconds) measured in
    let n = List.length lat in
    {
      metrics =
        [
          metric ~count:setups "setup_s" "s" (median setup_times);
          metric ~count:n "answers_per_s" "1/s" (ratio (float_of_int n) (sum lat));
          metric ~count:n "latency_p50_s" "s" (percentile lat 0.5);
          metric ~count:n "latency_p90_s" "s" (percentile lat 0.9);
        ];
      extra =
        [
          metric ~count:n "latency_p99_s" "s" (percentile lat 0.99);
          metric "heap_peak_mb" "MB" (heap_peak_mb ());
        ];
      attempted = List.length answers + 1;
      problems;
      verdicts;
    }
  end
  else begin
    let t =
      {
        solver = Spans.zero_solver;
        analyzed = 0.;
        counters = Hashtbl.create 64;
        hists = Hashtbl.create 16;
      }
    in
    let answers = drive ~traced:(traced_call t) w scenarios ~seconds in
    let verdicts, problems = judge w scenarios answers ~force_mismatch in
    let traced, untraced = List.partition (fun a -> a.traced) answers in
    let scenario, base = scenarios.(0) in
    let s = t.solver in
    let lookup tbl n = Option.value ~default:0. (Hashtbl.find_opt tbl n) in
    let budget =
      {
        Budget.answers = List.length traced;
        e2e = t.analyzed;
        unattributed =
          t.analyzed -. (s.Spans.encode +. s.Spans.check +. s.Spans.verify +. s.Spans.base);
        overhead =
          Budget.overhead
            ~untraced:(List.map (fun a -> a.seconds) untraced)
            ~traced:(List.map (fun a -> a.seconds) traced);
        solver = s;
        replay = Budget.replay ~scenario ~base;
        client = Budget.no_client;
        source = { Budget.counter = lookup t.counters; hist_sum = lookup t.hists };
        depth_max = 0;
      }
    in
    {
      metrics = Budget.metrics budget;
      extra = [];
      attempted = List.length answers + 1;
      problems;
      verdicts;
    }
  end
