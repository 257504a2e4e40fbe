(* Benchmark harness regenerating every table and figure of the paper's
   evaluation (Section IV), plus the ablations called out in DESIGN.md.

   Output: one section per experiment id (FIG4A, FIG4B, FIG4C, FIG5A,
   FIG5B, FIG5C, TABLE4 and the ABL ablations), each printing the same
   rows/series the paper reports (system size vs time / memory), followed
   by Bechamel micro-benchmarks (one Test.make per table/figure kernel).

   Isolation: each measurement runs on a detached domain awaited with a
   timeout (Pool.detached + Future.await_timeout) instead of the old
   fork-per-measurement.  A timed-out solve cannot be killed — its domain
   is abandoned and keeps running until process exit — but results flow
   back in-process, so no Marshal round-trip and the Obs counters the
   rows report are the real shared-registry deltas (exact: the counters
   are atomic).

   Sharding: BENCH_JOBS=n runs whole suites concurrently on a Pool; each
   suite renders into its own buffer and the buffers are printed in suite
   order, so the output is deterministic.  Sharding trades measurement
   fidelity for wall-clock (suites contend for cores, and per-row counter
   deltas then include concurrent suites' work) — keep BENCH_JOBS=1 when
   the numbers themselves are the point.

   Environment:
     BENCH_QUICK=1   restrict to the 5/14/30-bus systems (fast CI run)
     BENCH_SEEDS=n   scenarios per size (default 3, as in the paper)
     BENCH_JOBS=n    run suites concurrently on n worker domains        *)

module Q = Numeric.Rat
module E = Topoguard.Evaluation
module Enc = Attack.Encoder

let quick = Sys.getenv_opt "BENCH_QUICK" <> None

let seeds =
  match Sys.getenv_opt "BENCH_SEEDS" with
  | Some s -> (try List.init (max 1 (int_of_string s)) (fun i -> i + 1) with _ -> [ 1; 2; 3 ])
  | None -> [ 1; 2; 3 ]

let bench_jobs =
  match Sys.getenv_opt "BENCH_JOBS" with
  | Some s -> (
    match int_of_string_opt s with
    | Some 0 -> Pool.default_jobs ()
    | Some n when n > 0 -> n
    | _ -> 1)
  | None -> 1

let sizes = if quick then [ 5; 14; 30 ] else [ 5; 14; 30; 57; 118 ]

let timeout_s =
  match Sys.getenv_opt "BENCH_TIMEOUT" with
  | Some s -> (try float_of_string s with _ -> 60.0)
  | None -> 60.0

(* run a computation on its own domain so a hard solver instance cannot
   stall the whole harness; None on timeout or crash.  The replacement
   for the old Unix.fork isolation: same contract, shared memory.
   A timed-out domain cannot be killed, only abandoned — it keeps
   running (and allocating), which bechamel's heap stabilization cannot
   tolerate, so every abandoned future is remembered for a later
   liveness check. *)
let abandoned : (unit -> bool) list Atomic.t = Atomic.make []

let remember_abandoned pending =
  let rec push () =
    let old = Atomic.get abandoned in
    if not (Atomic.compare_and_set abandoned old (pending :: old)) then
      push ()
  in
  push ()

let run_with_timeout (f : unit -> 'a) : 'a option =
  let fut = Pool.detached f in
  match
    Pool.Future.await_timeout ~clock:Unix.gettimeofday
      ~sleep:(fun () -> Unix.sleepf 0.02)
      ~seconds:timeout_s fut
  with
  | None ->
    remember_abandoned (fun () -> Pool.Future.poll fut = `Pending);
    None
  | Some _ as v -> v
  | exception _ -> None

let with_timeout (f : unit -> E.measurement) ~fallback : E.measurement =
  match run_with_timeout f with
  | Some m -> m
  | None ->
    {
      fallback with
      E.seconds = timeout_s;
      result = Printf.sprintf "timeout(>%.0fs)" timeout_s;
    }

let fallback_measurement label size =
  {
    E.label;
    system_size = size;
    seconds = 0.0;
    allocated_mb = 0.0;
    result = "?";
    counters = [];
  }

(* ---- output sinks: direct streaming when sequential, per-suite buffers
   when sharded (printed in suite order once the suite completes) ---- *)

type sink = { put : string -> unit }

let direct_sink = { put = (fun s -> print_string s; flush stdout) }
let buffer_sink buf = { put = Buffer.add_string buf }
let out sink fmt = Printf.ksprintf sink.put fmt

(* ---- machine-readable output: one BENCH_<suite>.json per section.
   Rows are suite-local (no shared registry), so sharded suites cannot
   interleave each other's JSON. *)

type suite_rows = Obs.Json.t list ref

let record_row ~(rows : suite_rows) ~case (m : E.measurement) =
  let open Obs.Json in
  let row =
    Obj
      [
        ("label", String m.E.label);
        ("case", String case);
        ("buses", Int m.E.system_size);
        ("seconds", Float m.E.seconds);
        ("allocated_mb", Float m.E.allocated_mb);
        ("result", String m.E.result);
        ("counters", Obj (List.map (fun (k, v) -> (k, Int v)) m.E.counters));
      ]
  in
  rows := row :: !rows

let write_suite_json sink suite (rows : suite_rows) =
  let file = Printf.sprintf "BENCH_%s.json" suite in
  Obs.write_json_file file
    (Obs.Json.Obj
       [
         ("suite", Obs.Json.String suite);
         ("rows", Obs.Json.List (List.rev !rows));
       ]);
  out sink "wrote %s\n" file

let header sink title detail =
  out sink "\n== %s ==\n%s\n%-6s %-6s %10s %12s  %s\n" title detail "buses"
    "case" "time(s)" "alloc(MB)" "result"

let row sink (m : E.measurement) case =
  out sink "%-6d %-6s %10.3f %12.1f  %s\n" m.E.system_size case m.E.seconds
    m.E.allocated_mb m.E.result

let avg_row sink size times =
  if times <> [] then
    out sink "%-6d %-6s %10.3f %12s  (average of %d scenarios)\n" size "avg"
      (List.fold_left ( +. ) 0.0 times /. float_of_int (List.length times))
      "-" (List.length times)

(* ---- Fig. 4: impact-verification time vs system size ---- *)

let fig4 ~suite ~title ~mode ~unsat sink =
  let rows : suite_rows = ref [] in
  header sink title
    "paper Fig. 4: full impact verification, random scenarios per size";
  List.iter
    (fun n ->
      let spec = Grid.Test_systems.ieee n in
      let times =
        List.map
          (fun seed ->
            let m =
              with_timeout ~fallback:(fallback_measurement "impact" n)
                (fun () ->
                  if unsat then E.unsat_impact_run ~mode ~seed spec
                  else E.impact_run ~mode ~seed spec)
            in
            let case = Printf.sprintf "s%d" seed in
            row sink m case;
            record_row ~rows ~case m;
            m.E.seconds)
          seeds
      in
      avg_row sink n times)
    sizes;
  write_suite_json sink suite rows

(* ---- Fig. 5(a): the OPF model alone, by budget tightness ---- *)

let fig5a sink =
  let rows : suite_rows = ref [] in
  header sink "FIG5A: OPF model time vs cost-constraint tightness"
    "paper Fig. 5(a): SMT bounded-cost feasibility; tighter budget = longer";
  List.iter
    (fun n ->
      let spec = Grid.Test_systems.ieee n in
      List.iter
        (fun t ->
          let m =
            with_timeout ~fallback:(fallback_measurement "opf-model" n)
              (fun () -> E.opf_model_run ~tightness:t spec)
          in
          let case =
            match t with `Loose -> "loose" | `Medium -> "med" | `Tight -> "tight"
          in
          row sink m case;
          record_row ~rows ~case m)
        [ `Loose; `Medium; `Tight ])
    sizes;
  write_suite_json sink "FIG5A" rows

(* ---- Fig. 5(b): the topology attack model alone ---- *)

let fig5b sink =
  let rows : suite_rows = ref [] in
  header sink "FIG5B: topology attack model time vs system size"
    "paper Fig. 5(b): attack model alone, random scenarios per size";
  List.iter
    (fun n ->
      let spec = Grid.Test_systems.ieee n in
      let times =
        List.map
          (fun seed ->
            let m =
              with_timeout ~fallback:(fallback_measurement "attack-model" n)
                (fun () -> E.attack_model_run ~mode:Enc.Topology_only ~seed spec)
            in
            let case = Printf.sprintf "s%d" seed in
            row sink m case;
            record_row ~rows ~case m;
            m.E.seconds)
          seeds
      in
      avg_row sink n times)
    sizes;
  write_suite_json sink "FIG5B" rows

(* ---- Fig. 5(c): unsatisfiable cases of the individual models ---- *)

let fig5c sink =
  let rows : suite_rows = ref [] in
  header sink "FIG5C: individual models, unsatisfiable cases"
    "paper Fig. 5(c): attack model with a 1-substation budget; OPF below optimum";
  List.iter
    (fun n ->
      let spec = Grid.Test_systems.ieee n in
      let m =
        with_timeout ~fallback:(fallback_measurement "unsat-attack" n)
          (fun () -> E.unsat_attack_model_run ~mode:Enc.Topology_only ~seed:1 spec)
      in
      row sink m "atk";
      record_row ~rows ~case:"atk" m;
      let m2 =
        with_timeout ~fallback:(fallback_measurement "unsat-opf" n)
          (fun () -> E.unsat_opf_model_run spec)
      in
      row sink m2 "opf";
      record_row ~rows ~case:"opf" m2)
    sizes;
  write_suite_json sink "FIG5C" rows

(* ---- Table IV: memory ---- *)

let table4 sink =
  out sink
    "\n== TABLE4: memory (MB allocated) by the solver per individual model ==\n";
  out sink "%-10s %-28s %-20s\n" "# of buses" "Topology attack model (MB)"
    "OPF model (MB)";
  List.iter
    (fun n ->
      let spec = Grid.Test_systems.ieee n in
      match run_with_timeout (fun () -> E.memory_table_row spec) with
      | Some (Ok (attack_mb, opf_mb)) ->
        out sink "%-10d %-28.2f %-20.2f\n" n attack_mb opf_mb
      | Some (Error e) -> out sink "%-10d error: %s\n" n e
      | None -> out sink "%-10d timeout(>%.0fs)\n" n timeout_s)
    sizes

(* ---- case-study recap (Section III-G) ---- *)

let case_studies sink =
  out sink "\n== CS1/CS2: the paper's case studies (Section III-G) ==\n";
  let run name scenario mode target =
    let scenario =
      { scenario with Grid.Spec.min_increase_pct = Q.of_int target }
    in
    match
      Attack.Base_state.of_dispatch scenario.Grid.Spec.grid
        ~gen:(Grid.Test_systems.case_study_base_dispatch ())
    with
    | Error e -> out sink "%s: base error %s\n" name e
    | Ok base -> (
      let config = { Topoguard.Impact.default_config with Topoguard.Impact.mode } in
      let t0 = Unix.gettimeofday () in
      match Topoguard.Impact.analyze ~config ~scenario ~base () with
      | Topoguard.Impact.Attack_found s ->
        out sink "%s (target %d%%): attack — excluded %s, %d meas in %d buses%s (%.3fs)\n"
          name target
          (String.concat ","
             (List.map (fun i -> string_of_int (i + 1))
                s.Topoguard.Impact.vector.Attack.Vector.excluded))
          (List.length s.Topoguard.Impact.vector.Attack.Vector.altered)
          (List.length s.Topoguard.Impact.vector.Attack.Vector.buses)
          (match s.Topoguard.Impact.poisoned_cost with
          | Some c ->
            Printf.sprintf ", poisoned $%s vs T* $%s"
              (Q.to_decimal_string ~digits:2 c)
              (Q.to_decimal_string ~digits:2 s.Topoguard.Impact.base_cost)
          | None -> "")
          (Unix.gettimeofday () -. t0)
      | Topoguard.Impact.No_attack { candidates } ->
        out sink "%s (target %d%%): no attack (%d candidates, %.3fs)\n"
          name target candidates
          (Unix.gettimeofday () -. t0)
      | Topoguard.Impact.Base_infeasible e ->
        out sink "%s: base infeasible %s\n" name e)
  in
  run "CS1" (Grid.Test_systems.case_study_1 ()) Enc.Topology_only 3;
  run "CS2" (Grid.Test_systems.case_study_2 ()) Enc.With_state_infection 6;
  run "CS2" (Grid.Test_systems.case_study_2 ()) Enc.With_state_infection 9

(* ---- ablations ---- *)

let abl_precision sink =
  out sink
    "\n== ABL-PRECISION: blocking-clause discretisation (Section IV-A idea 1) ==\n\
     CS2 at a 9%% target: coarser discretisation concludes faster but can\n\
     block genuinely distinct vectors — at 3+ digits an attack above 9%%\n\
     exists that the paper's 2-digit setting (and hence its 8%% bound) misses.\n";
  out sink "%-10s %-12s %-10s %s\n" "digits" "candidates" "time(s)" "result";
  let scenario = Grid.Test_systems.case_study_2 () in
  match
    Attack.Base_state.of_dispatch scenario.Grid.Spec.grid
      ~gen:(Grid.Test_systems.case_study_base_dispatch ())
  with
  | Error e -> out sink "base error: %s\n" e
  | Ok base ->
    List.iter
      (fun precision ->
        let config =
          {
            Topoguard.Impact.default_config with
            Topoguard.Impact.mode = Enc.With_state_infection;
            precision;
            max_candidates = 500;
          }
        in
        let t0 = Unix.gettimeofday () in
        let scenario9 =
          { scenario with Grid.Spec.min_increase_pct = Q.of_int 9 }
        in
        match Topoguard.Impact.analyze ~config ~scenario:scenario9 ~base () with
        | Topoguard.Impact.No_attack { candidates } ->
          out sink "%-10d %-12d %-10.3f %s\n" precision candidates
            (Unix.gettimeofday () -. t0) "no attack within discretisation"
        | Topoguard.Impact.Attack_found s ->
          out sink "%-10d %-12d %-10.3f %s\n" precision
            s.Topoguard.Impact.candidates
            (Unix.gettimeofday () -. t0)
            (match s.Topoguard.Impact.poisoned_cost with
            | Some c ->
              Printf.sprintf "attack found (poisoned $%s)"
                (Q.to_decimal_string ~digits:2 c)
            | None -> "attack found")
        | Topoguard.Impact.Base_infeasible e ->
          out sink "%-10d base infeasible: %s\n" precision e)
      [ 1; 2; 3 ]

let abl_factors sink =
  out sink
    "\n== ABL-FACTORS: angle-variable OPF vs shift-factor OPF (idea 2) ==\n";
  out sink "%-6s %-14s %-14s %-10s\n" "buses" "exact LP (s)"
    "factors (s)" "cost match";
  List.iter
    (fun n ->
      let grid = (Grid.Test_systems.ieee n).Grid.Spec.grid in
      let topo = Grid.Topology.make grid in
      let time f =
        let t0 = Unix.gettimeofday () in
        let r = f () in
        (Unix.gettimeofday () -. t0, r)
      in
      let t_fast, r_fast =
        match
          run_with_timeout (fun () ->
              let t, r = time (fun () -> Opf.Float_opf.solve topo) in
              (t, r))
        with
        | Some v -> v
        | None -> (timeout_s, Opf.Dc_opf.Infeasible)
      in
      if n <= 14 then begin
        let t_exact, r_exact = time (fun () -> Opf.Dc_opf.solve topo) in
        let same =
          match (r_exact, r_fast) with
          | Opf.Dc_opf.Dispatch a, Opf.Dc_opf.Dispatch b ->
            Float.abs (Q.to_float a.Opf.Dc_opf.cost -. Q.to_float b.Opf.Dc_opf.cost)
            < 0.01
          | _ -> false
        in
        out sink "%-6d %-14.3f %-14.3f %-10s\n" n t_exact t_fast
          (if same then "within 1c" else "DIFFERS")
      end
      else out sink "%-6d %-14s %-14.3f %-10s\n" n "(skipped)" t_fast "-")
    sizes

(* mutates the global cardinality-encoding toggle, so this suite must
   never run concurrently with another — the driver keeps it out of the
   sharded batch *)
let abl_cardinality sink =
  out sink
    "\n== ABL-CARD: cardinality encoding (sequential counter vs LRA indicators) ==\n";
  out sink "%-6s %-22s %-22s\n" "buses" "seq. counter (s)" "indicators (s)";
  List.iter
    (fun n ->
      let spec = Grid.Test_systems.ieee n in
      let run () =
        match
          run_with_timeout (fun () ->
              (E.attack_model_run ~mode:Enc.Topology_only ~seed:1 spec).E.seconds)
        with
        | Some t -> t
        | None -> Float.nan
      in
      let t_seq = run () in
      Enc.encode_cardinality_with_indicators := true;
      let t_ind = run () in
      Enc.encode_cardinality_with_indicators := false;
      out sink "%-6d %-22.3f %-22.3f\n" n t_seq t_ind)
    (if quick then [ 5; 14 ] else [ 5; 14; 30 ])

(* ---- ABL-FASTPATH: SMT enumeration vs closed-form single-line path ---- *)

let abl_fastpath sink =
  out sink
    "\n== ABL-FASTPATH: SMT candidate loop vs closed-form single-line path ==\n";
  out sink "%-6s %-14s %-16s %-16s %-10s\n" "buses" "SMT loop (s)"
    "closed form (s)" "closed x4 (s)" "same verdict";
  List.iter
    (fun n ->
      let spec0 = Grid.Test_systems.ieee n in
      let spec = E.randomize_scenario ~seed:1 spec0 in
      let spec = { spec with Grid.Spec.min_increase_pct = Q.of_ints 3 2 } in
      match Topoguard.Impact.base_state `Case_study spec.Grid.Spec.grid with
      | Error e -> out sink "%-6d base error: %s\n" n e
      | Ok base ->
        let run ~use_closed_form ~jobs =
          run_with_timeout (fun () ->
              let config =
                {
                  Topoguard.Impact.default_config with
                  Topoguard.Impact.mode = Enc.Topology_only;
                  backend =
                    (if n >= 30 then Topoguard.Impact.Fast_factors
                     else Topoguard.Impact.Lp_exact);
                  max_topology_changes = Some 1;
                  use_closed_form;
                  jobs;
                }
              in
              let t0 = Unix.gettimeofday () in
              let outcome =
                Topoguard.Impact.analyze ~config ~scenario:spec ~base ()
              in
              let dt = Unix.gettimeofday () -. t0 in
              let tag =
                match outcome with
                | Topoguard.Impact.Attack_found _ -> "attack"
                | Topoguard.Impact.No_attack _ -> "no-attack"
                | Topoguard.Impact.Base_infeasible _ -> "infeasible"
              in
              (dt, tag))
        in
        (match
           ( run ~use_closed_form:false ~jobs:1,
             run ~use_closed_form:true ~jobs:1,
             run ~use_closed_form:true ~jobs:4 )
         with
        | Some (t_smt, v1), Some (t_cf, v2), Some (t_cf4, v3) ->
          out sink "%-6d %-14.3f %-16.3f %-16.3f %-10s\n" n t_smt t_cf t_cf4
            (if v1 = v2 && v2 = v3 then "yes (" ^ v1 ^ ")"
             else "NO: " ^ v1 ^ "/" ^ v2 ^ "/" ^ v3)
        | _ -> out sink "%-6d timeout\n" n))
    sizes

(* ---- Bechamel micro-benchmarks: one Test.make per table/figure ---- *)

let bechamel_section () =
  let open Bechamel in
  let still_running =
    List.length (List.filter (fun pending -> pending ()) (Atomic.get abandoned))
  in
  if still_running > 0 then
    Printf.printf
      "\n== BECHAMEL: skipped — %d timed-out measurement(s) still running \
       on abandoned domains; the heap cannot stabilize ==\n"
      still_running
  else begin
  Printf.printf "\n== BECHAMEL: per-experiment kernels (5-bus, OLS ns/run) ==\n";
  let cs1 = Grid.Test_systems.case_study_1 () in
  let cs2 = Grid.Test_systems.case_study_2 () in
  let base =
    match
      Attack.Base_state.of_dispatch cs1.Grid.Spec.grid
        ~gen:(Grid.Test_systems.case_study_base_dispatch ())
    with
    | Ok b -> b
    | Error e -> failwith e
  in
  let topo = Grid.Topology.make cs1.Grid.Spec.grid in
  let tests =
    [
      Test.make ~name:"fig4a:impact-topo-5bus"
        (Staged.stage (fun () ->
             ignore (Topoguard.Impact.analyze ~scenario:cs1 ~base ())));
      Test.make ~name:"fig4b:impact-state-5bus"
        (Staged.stage (fun () ->
             let config =
               {
                 Topoguard.Impact.default_config with
                 Topoguard.Impact.mode = Enc.With_state_infection;
               }
             in
             ignore (Topoguard.Impact.analyze ~config ~scenario:cs2 ~base ())));
      Test.make ~name:"fig4c:impact-unsat-5bus"
        (Staged.stage (fun () ->
             let scenario =
               { cs1 with Grid.Spec.min_increase_pct = Q.of_int 100000 }
             in
             ignore (Topoguard.Impact.analyze ~scenario ~base ())));
      Test.make ~name:"fig5a:opf-model-5bus"
        (Staged.stage (fun () ->
             ignore (Opf.Smt_opf.feasible topo ~budget:(Q.of_int 1520))));
      Test.make ~name:"fig5b:attack-model-5bus"
        (Staged.stage (fun () ->
             let solver = Smt.Solver.create () in
             let _ =
               Enc.encode solver ~mode:Enc.Topology_only ~scenario:cs1 ~base
             in
             ignore (Smt.Solver.check solver)));
      Test.make ~name:"fig5c:opf-model-unsat-5bus"
        (Staged.stage (fun () ->
             ignore (Opf.Smt_opf.feasible topo ~budget:(Q.of_int 1200))));
      Test.make ~name:"table4:attack-encode-5bus"
        (Staged.stage (fun () ->
             let solver = Smt.Solver.create () in
             ignore
               (Enc.encode solver ~mode:Enc.With_state_infection ~scenario:cs2
                  ~base)));
    ]
  in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.5) () in
  List.iter
    (fun test ->
      List.iter
        (fun elt ->
          let raw =
            Benchmark.run cfg Toolkit.Instance.[ monotonic_clock ] elt
          in
          let ols =
            Analyze.one
              (Analyze.ols ~r_square:true ~bootstrap:0
                 ~predictors:[| Measure.run |])
              Toolkit.Instance.monotonic_clock raw
          in
          let estimate =
            match Analyze.OLS.estimates ols with
            | Some [ e ] -> Printf.sprintf "%.0f ns/run" e
            | _ -> "n/a"
          in
          Printf.printf "%-32s %s\n%!" (Test.Elt.name elt) estimate)
        (Test.elements test))
    tests
  end

(* ---- driver: run the suites, sequentially or sharded over a pool ---- *)

let run_suites suites =
  if bench_jobs <= 1 then List.iter (fun suite -> suite direct_sink) suites
  else
    Pool.with_pool ~jobs:bench_jobs (fun pool ->
        let buffers =
          Pool.map pool
            ~f:(fun suite ->
              let buf = Buffer.create 4096 in
              suite (buffer_sink buf);
              buf)
            suites
        in
        List.iter
          (fun buf ->
            print_string (Buffer.contents buf);
            flush stdout)
          buffers)

let only_tail = Sys.getenv_opt "BENCH_TAIL_ONLY" <> None

let () =
  Obs.Clock.set Unix.gettimeofday;
  Obs.set_enabled true;
  if only_tail then begin
    (* resume mode: print just the sections after ABL-FACTORS *)
    run_suites [ abl_factors ];
    abl_cardinality direct_sink;
    run_suites [ abl_fastpath ];
    bechamel_section ();
    Printf.printf "\ndone.\n";
    exit 0
  end;
  Printf.printf "topoguard benchmark harness — regenerating the paper's evaluation\n";
  Printf.printf "systems: %s; %d scenario(s) per size%s%s\n"
    (String.concat ", " (List.map string_of_int sizes))
    (List.length seeds)
    (if quick then " (BENCH_QUICK)" else "")
    (if bench_jobs > 1 then Printf.sprintf "; %d suite shards" bench_jobs
     else "");
  run_suites
    [
      case_studies;
      fig4 ~suite:"FIG4A"
        ~title:"FIG4A: impact verification, topology attacks w/o state infection"
        ~mode:Enc.Topology_only ~unsat:false;
      fig4 ~suite:"FIG4B"
        ~title:"FIG4B: impact verification, topology attacks + state infection"
        ~mode:Enc.With_state_infection ~unsat:false;
      fig4 ~suite:"FIG4C"
        ~title:"FIG4C: impact verification, unsatisfiable cases"
        ~mode:Enc.Topology_only ~unsat:true;
      fig5a;
      fig5b;
      fig5c;
      table4;
      abl_precision;
      abl_factors;
      abl_fastpath;
    ];
  (* toggles a global encoder flag — must run alone *)
  abl_cardinality direct_sink;
  bechamel_section ();
  Printf.printf "\ndone.\n"
