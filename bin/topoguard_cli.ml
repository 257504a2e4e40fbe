(* topoguard: command-line front end over the paper's input-file format.

   Sub-commands: opf, se, attack, impact, gen (write a bundled test system
   to a file), lint (static analysis of grid data), defend, contingency,
   acpf, audit, serve (resident scenario service), submit (its client).

   Exit codes (documented in README.md; keep the two in sync):
     0  success (for serve: graceful drain)
     1  runtime/analysis failure (infeasible OPF, lint errors, job
        failed/timed out/cancelled, server startup failure)
     2  input parse or usage errors
     3  --check-model found model errors *)

module Q = Numeric.Rat
module N = Grid.Network
open Cmdliner

let qs ?(d = 4) v = Q.to_decimal_string ~digits:d v

let load_spec path =
  match Grid.Spec.parse_file path with
  | Ok spec -> spec
  | Error e ->
    Format.eprintf "error: %s@." e;
    exit 2

let base_state_of spec kind =
  match Topoguard.Impact.base_state kind spec.Grid.Spec.grid with
  | Ok b -> b
  | Error e ->
    (* the file parsed; failing to construct the operating point is an
       analysis failure (exit 1), not an input error (exit 2) *)
    Format.eprintf "base state error: %s@." e;
    exit 1

(* ---- observability (--stats / --stats-json) ---- *)

let stats_term =
  let show =
    Arg.(value & flag
         & info [ "stats" ]
             ~doc:"Print observability counters and wall-clock timings \
                   (SAT decisions/propagations, simplex pivots, per-phase \
                   solve times) after the command finishes.")
  in
  let json_file =
    Arg.(value & opt (some string) None
         & info [ "stats-json" ] ~docv:"FILE"
             ~doc:"Write the observability snapshot as JSON to $(docv).")
  in
  Term.(const (fun show json_file -> (show, json_file)) $ show $ json_file)

(* run [f] with the observability layer armed when either flag was given;
   [extra] contributes command-specific JSON fields (e.g. per-solver SMT
   statistics) evaluated after [f] *)
let with_stats ?(extra = fun () -> []) (show, json_file) f =
  Obs.Clock.set Unix.gettimeofday;
  if show || json_file <> None then Obs.set_enabled true;
  let result = f () in
  if show || json_file <> None then begin
    let snap = Obs.snapshot () in
    if show then print_string (Obs.to_table snap);
    match json_file with
    | Some path -> (
      let fields =
        match Obs.json_of_snapshot snap with
        | Obs.Json.Obj fields -> fields
        | j -> [ ("snapshot", j) ]
      in
      try
        Obs.write_json_file path (Obs.Json.Obj (fields @ extra ()));
        Format.printf "stats written to %s@." path
      with Sys_error e ->
        Format.eprintf "cannot write stats file: %s@." e;
        exit 1)
    | None -> ()
  end;
  result

(* ---- tracing (--trace) ---- *)

let trace_term =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Record trace spans (whole solves, per-candidate \
                 verifications, encoded equations) and write Chrome \
                 trace_event JSON to $(docv) when the command finishes; \
                 open it in about:tracing or Perfetto.")

(* run [f] with span recording on when --trace was given, then export;
   composes with [with_stats] (either may install the wall clock) *)
let with_trace trace f =
  match trace with
  | None -> f ()
  | Some path ->
    Obs.Clock.set Unix.gettimeofday;
    (* real pid, so this file merges cleanly with server-side traces *)
    Obs.Trace.set_pid (Unix.getpid ());
    Obs.Trace.set_enabled true;
    let result = f () in
    Obs.Trace.set_enabled false;
    (try
       Obs.Trace.write_file path;
       Format.printf "trace written to %s@." path
     with Sys_error e ->
       Format.eprintf "cannot write trace file: %s@." e;
       exit 1);
    result

(* ---- shared arguments ---- *)

(* --jobs N: verification/screening parallelism.  0 = the machine's
   recommended domain count. *)
let jobs_arg =
  Arg.(value & opt int 1
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the parallel stages (closed-form \
                 candidate verification, N-1 screening).  $(docv) = 0 \
                 picks the recommended domain count of this machine; 1 \
                 (default) runs sequentially.")

let resolve_jobs n = if n = 0 then Pool.default_jobs () else n

let file_arg =
  Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE"
         ~doc:"Input file in the paper's text format (Tables II/III).")

let mode_arg =
  let modes =
    [
      ("topo", Attack.Encoder.Topology_only);
      ("state", Attack.Encoder.With_state_infection);
      ("ufdi", Attack.Encoder.Ufdi_only);
    ]
  in
  Arg.(value & opt (enum modes) Attack.Encoder.Topology_only
       & info [ "mode" ] ~docv:"MODE"
           ~doc:"Attack mode: $(b,topo) (Section III-C), $(b,state) \
                 (III-D), or $(b,ufdi) (states only).")

let base_arg =
  let kinds = [ ("opf", `Opf); ("proportional", `Proportional); ("case-study", `Case_study) ] in
  Arg.(value & opt (enum kinds) `Case_study
       & info [ "base" ] ~docv:"KIND"
           ~doc:"Observed operating point: $(b,opf), $(b,proportional), or \
                 $(b,case-study) (calibrated 5-bus dispatch).")

(* ---- model checking (--check-model) ---- *)

let check_model_arg =
  Arg.(value & flag
       & info [ "check-model" ]
           ~doc:"Lint every formula of the attack encoding (unknown \
                 variables, contradictory or duplicate atoms, empty bound \
                 intervals) before solving; exit 3 if the model has \
                 errors.")

(* encode the scenario with the lint hook attached and report every
   diagnostic; exits 3 when the model is broken *)
let run_model_check ?max_topology_changes ~mode spec b =
  let solver = Smt.Solver.create () in
  let tagged = ref [] in
  let on_assert tag f = tagged := (tag, f) :: !tagged in
  ignore
    (Attack.Encoder.encode ?max_topology_changes ~on_assert solver ~mode
       ~scenario:spec ~base:b);
  let assertions = List.rev !tagged in
  let diags =
    Analysis.Form_lint.check
      ~n_bools:(Smt.Solver.n_bools solver)
      ~n_reals:(Smt.Solver.n_reals solver)
      assertions
  in
  Format.printf "%a" Analysis.Diagnostic.pp_list diags;
  let errors = Analysis.Diagnostic.count_errors diags in
  Format.printf "model check: %d formulas, %d error(s), %d finding(s)@."
    (List.length assertions) errors (List.length diags);
  if errors > 0 then exit 3

(* ---- lint ---- *)

let json_flag =
  Arg.(value & flag
       & info [ "json" ]
           ~doc:"Machine-readable output: one JSON object per diagnostic \
                 per line (fields $(b,file), $(b,severity), $(b,code), \
                 optional $(b,tag)/$(b,loc), $(b,message)), in the same \
                 deterministic order as the human output.")

(* shared by lint/audit: print sorted diagnostics for one file, either as
   human-readable lines or as one JSON object per line *)
let print_diags ~json file diags =
  let diags = Analysis.Diagnostic.sorted diags in
  if json then
    List.iter
      (fun d ->
        print_endline (Analysis.Diagnostic.to_json_string ~file d))
      diags
  else
    List.iter
      (fun d -> Format.printf "%s: %a@." file Analysis.Diagnostic.pp d)
      diags;
  diags

let lint_cmd =
  let run files json =
    let parse_failures = ref 0 and lint_errors = ref 0 in
    List.iter
      (fun file ->
        match Grid.Spec.parse_file ~validate:false file with
        | Error e ->
          incr parse_failures;
          Format.eprintf "%s: parse error: %s@." file e
        | Ok spec ->
          let diags =
            print_diags ~json file (Analysis.Grid_lint.check spec)
          in
          lint_errors := !lint_errors + Analysis.Diagnostic.count_errors diags;
          if not json then
            Format.printf "%s: %d finding(s), %d error(s)@." file
              (List.length diags)
              (Analysis.Diagnostic.count_errors diags))
      files;
    if !parse_failures > 0 then exit 2 else if !lint_errors > 0 then exit 1
  in
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Input file(s) in the paper's text format (Tables II/III).")
  in
  Cmd.v
    (Cmd.info "lint"
       ~doc:"Statically validate grid input files: connectivity, line \
             admittances and capacities, generator and load bounds, \
             measurement-vector shape, reference bus, generation/load \
             balance.  Exits 1 on lint errors, 2 on parse failures.")
    Term.(const run $ files $ json_flag)

(* ---- opf ---- *)

let opf_cmd =
  let run file fast stats =
    let spec = load_spec file in
    let topo = Grid.Topology.make spec.Grid.Spec.grid in
    let solve = if fast then Opf.Float_opf.solve else Opf.Dc_opf.solve in
    with_stats stats @@ fun () ->
    match solve topo with
    | Opf.Dc_opf.Dispatch d ->
      Format.printf "optimal cost: $%s@." (qs ~d:2 d.Opf.Dc_opf.cost);
      Array.iteri
        (fun k p ->
          Format.printf "gen at bus %d: %s pu@."
            (spec.Grid.Spec.grid.N.gens.(k).N.gbus + 1)
            (qs p))
        d.Opf.Dc_opf.pg;
      Array.iteri
        (fun i f -> Format.printf "line %d flow: %s pu@." (i + 1) (qs f))
        d.Opf.Dc_opf.flows
    | Opf.Dc_opf.Infeasible ->
      Format.printf "OPF infeasible@.";
      exit 1
    | Opf.Dc_opf.Unbounded ->
      Format.printf "OPF unbounded@.";
      exit 1
  in
  let fast =
    Arg.(value & flag & info [ "fast" ] ~doc:"Use the shift-factor OPF.")
  in
  Cmd.v (Cmd.info "opf" ~doc:"Solve the DC optimal power flow.")
    Term.(const run $ file_arg $ fast $ stats_term)

(* ---- se ---- *)

let se_cmd =
  let run file base =
    let spec = load_spec file in
    let b = base_state_of spec base in
    let topo = b.Attack.Base_state.topo in
    if not (Estimation.Estimator.is_observable topo) then begin
      Format.printf "system unobservable with the taken measurements@.";
      exit 1
    end;
    let sol =
      {
        Grid.Powerflow.theta = b.Attack.Base_state.theta;
        flows =
          Array.mapi
            (fun i f ->
              if topo.Grid.Topology.mapped.(i) then f else Q.zero)
            b.Attack.Base_state.flows;
        consumption =
          Array.init spec.Grid.Spec.grid.N.n_buses (fun j ->
              Q.sub b.Attack.Base_state.load.(j) b.Attack.Base_state.gen.(j));
      }
    in
    let est = Estimation.Estimator.make topo in
    let z = Estimation.Estimator.measurement_vector topo sol in
    let r = Estimation.Estimator.estimate est ~z in
    Format.printf "residual: %g@." r.Estimation.Estimator.residual;
    Array.iteri
      (fun j a -> Format.printf "theta %d: %.5f@." (j + 1) a)
      r.Estimation.Estimator.angles
  in
  Cmd.v (Cmd.info "se" ~doc:"Run WLS state estimation at the base point.")
    Term.(const run $ file_arg $ base_arg)

(* ---- attack ---- *)

let attack_cmd =
  let run file mode base check_model ((show, _) as stats) trace =
    let spec = load_spec file in
    let b = base_state_of spec base in
    if check_model then run_model_check ~mode spec b;
    let solver_ref = ref None in
    with_trace trace @@ fun () ->
    with_stats stats
      ~extra:(fun () ->
        match !solver_ref with
        | Some s ->
          [ ("solver", Smt.Solver.json_of_stats (Smt.Solver.stats s)) ]
        | None -> [])
      (fun () ->
        let solver = Smt.Solver.create () in
        solver_ref := Some solver;
        let vars = Attack.Encoder.encode solver ~mode ~scenario:spec ~base:b in
        (match Smt.Solver.check solver with
        | `Unsat ->
          Format.printf "no stealthy attack vector exists for this scenario@."
        | `Sat ->
          let v = Attack.Vector.of_model solver vars spec in
          Format.printf "stealthy attack vector:@.%a" Attack.Vector.pp v;
          if show then
            Format.printf "named model:@.%a" Smt.Solver.pp_model solver);
        if show then
          Format.printf "solver statistics:@.%a" Smt.Solver.pp_stats
            (Smt.Solver.stats solver))
  in
  Cmd.v
    (Cmd.info "attack"
       ~doc:"Search for a stealthy topology-poisoning attack vector.")
    Term.(
      const run $ file_arg $ mode_arg $ base_arg $ check_model_arg
      $ stats_term $ trace_term)

(* ---- impact ---- *)

let impact_cmd =
  let pp_outcome = function
    | Topoguard.Impact.Attack_found s ->
      Format.printf "attack found after %d candidate(s):@.%a"
        s.Topoguard.Impact.candidates Attack.Vector.pp
        s.Topoguard.Impact.vector;
      Format.printf "T* = $%s, threshold = $%s@."
        (qs ~d:2 s.Topoguard.Impact.base_cost)
        (qs ~d:2 s.Topoguard.Impact.threshold);
      (match s.Topoguard.Impact.poisoned_cost with
      | Some c -> Format.printf "poisoned optimum = $%s@." (qs ~d:2 c)
      | None -> ())
    | Topoguard.Impact.No_attack { candidates } ->
      Format.printf
        "no stealthy attack achieves the target (%d candidates examined)@."
        candidates
    | Topoguard.Impact.Base_infeasible e ->
      Format.printf "base case infeasible: %s@." e;
      exit 1
  in
  let run file mode base increase sweep max_candidates single_line no_audit
      audit_cross_check check_model jobs stats trace =
    let spec = load_spec file in
    let spec =
      match increase with
      | None -> spec
      | Some pct ->
        { spec with Grid.Spec.min_increase_pct = Q.of_decimal_string pct }
    in
    let b = base_state_of spec base in
    let config =
      {
        Topoguard.Impact.default_config with
        Topoguard.Impact.mode;
        max_candidates;
        use_closed_form = single_line;
        max_topology_changes =
          (if single_line then Some 1
           else Topoguard.Impact.default_config.Topoguard.Impact
                  .max_topology_changes);
        jobs = resolve_jobs jobs;
        audit = not no_audit;
        audit_cross_check;
      }
    in
    if check_model then
      run_model_check
        ?max_topology_changes:config.Topoguard.Impact.max_topology_changes
        ~mode spec b;
    with_trace trace @@ fun () ->
    with_stats stats @@ fun () ->
    match sweep with
    | None ->
      pp_outcome (Topoguard.Impact.analyze ~config ~scenario:spec ~base:b ())
    | Some pcts ->
      let increases =
        List.filter_map
          (fun s ->
            let s = String.trim s in
            if s = "" then None else Some (Q.of_decimal_string s))
          (String.split_on_char ',' pcts)
      in
      if increases = [] then begin
        Format.eprintf "error: --sweep needs a comma-separated list of percentages@.";
        exit 2
      end;
      List.iter
        (fun (pct, outcome) ->
          Format.printf "== target increase %s%% ==@." (qs ~d:2 pct);
          pp_outcome outcome)
        (Topoguard.Impact.analyze_sweep ~config ~scenario:spec ~base:b
           ~increases ())
  in
  let increase =
    Arg.(value & opt (some string) None
         & info [ "increase" ] ~docv:"PCT"
             ~doc:"Override the target cost increase (percent).")
  in
  let sweep =
    Arg.(value & opt (some string) None
         & info [ "sweep" ] ~docv:"PCTS"
             ~doc:"Run the analysis against several target increases \
                   (comma-separated percentages, e.g. $(b,2,5,10)), sharing \
                   the base OPF, candidate enumeration, and per-candidate \
                   poisoned optima across targets instead of restarting per \
                   target.")
  in
  let max_candidates =
    Arg.(value & opt int 200
         & info [ "max-candidates" ] ~docv:"N"
             ~doc:"Bound on candidate attack vectors to examine.")
  in
  let single_line =
    Arg.(value & flag
         & info [ "single-line" ]
             ~doc:"Restrict to single-line attacks and enumerate them in \
                   closed form (no SMT; paper Section IV-A).  Candidate \
                   verification then parallelises with $(b,--jobs).")
  in
  let no_audit =
    Arg.(value & flag
         & info [ "no-audit" ]
             ~doc:"Disable the solver-free static pre-pass that prunes \
                   candidates which provably cannot reach the threshold \
                   (bridge islanding, interval cost bounds).  The outcome \
                   is identical either way; only the number of OPF solves \
                   changes (counters $(b,audit.pruned*) under \
                   $(b,--stats)).")
  in
  let audit_cross_check =
    Arg.(value & flag
         & info [ "audit-cross-check" ]
             ~doc:"Solve every statically pruned candidate anyway and \
                   assert the prune verdict against the solver's \
                   (counter $(b,audit.prune.unsound)); costs what \
                   $(b,--no-audit) costs.  For CI parity gates.")
  in
  Cmd.v
    (Cmd.info "impact"
       ~doc:"Full impact analysis (paper Fig. 2): can a stealthy attack \
             raise the OPF cost by the target percentage?")
    Term.(
      const run $ file_arg $ mode_arg $ base_arg $ increase $ sweep
      $ max_candidates $ single_line $ no_audit $ audit_cross_check
      $ check_model_arg $ jobs_arg $ stats_term $ trace_term)

(* ---- gen ---- *)

let gen_cmd =
  let bundled = [ 5; 14; 30; 57; 118 ] in
  let run system out seed degree gens =
    let synthesize n =
      match Grid.Gen.make ?seed ~avg_degree:degree ?gens n with
      | spec -> spec
      | exception (Invalid_argument m | Failure m) ->
        Format.eprintf "gen: %s@." m;
        exit 2
    in
    let spec =
      match system with
      | "cs1" -> Grid.Test_systems.case_study_1 ()
      | "cs2" -> Grid.Test_systems.case_study_2 ()
      | s -> (
        match int_of_string_opt s with
        | Some n when List.mem n bundled && seed = None && gens = None ->
          Grid.Test_systems.ieee n
        | Some n -> synthesize n
        | None ->
          Format.eprintf
            "unknown system %S (use cs1, cs2, or a bus count)@." s;
          exit 2)
    in
    Grid.Spec.write_file out spec;
    Format.printf "wrote %s@." out
  in
  let system =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SYSTEM"
           ~doc:"cs1, cs2, a bundled bus count (5/14/30/57/118), or any \
                 other bus count $(b,>= 3) to synthesize a deterministic \
                 grid of that size.")
  in
  let out =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"OUT"
           ~doc:"Output path.")
  in
  let seed =
    Arg.(value & opt (some int) None & info [ "seed" ] ~docv:"SEED"
           ~doc:"Generation seed (default: the bus count).  Same size and \
                 seed always write the same bytes.  Forces synthesis even \
                 for bundled sizes.")
  in
  let degree =
    Arg.(value & opt float 2.8 & info [ "degree" ] ~docv:"D"
           ~doc:"Average bus degree of the synthesized mesh (>= 2; the \
                 ring backbone alone is 2).")
  in
  let gens =
    Arg.(value & opt (some int) None & info [ "gens" ] ~docv:"N"
           ~doc:"Generator count (default: bus count / 8, at least 3).  \
                 Forces synthesis even for bundled sizes.")
  in
  Cmd.v
    (Cmd.info "gen"
       ~doc:"Write a bundled test system, or synthesize a seeded grid of \
             any size, in the input format.")
    Term.(const run $ system $ out $ seed $ degree $ gens)

(* ---- defend ---- *)

let defend_cmd =
  let run file mode base minimal stats =
    let spec = load_spec file in
    let b = base_state_of spec base in
    let config = { Topoguard.Impact.default_config with Topoguard.Impact.mode } in
    with_stats stats @@ fun () ->
    if minimal then begin
      match Topoguard.Defense.synthesize_minimal ~config ~scenario:spec ~base:b () with
      | Error e ->
        Format.eprintf "error: %s@." e;
        exit 1
      | Ok None -> Format.printf "no protection set of bounded size works@."
      | Ok (Some plan) ->
        Format.printf "minimal protection plan: %a@." Topoguard.Defense.pp_plan plan
    end
    else begin
      match Topoguard.Defense.synthesize_greedy ~config ~scenario:spec ~base:b () with
      | Error e ->
        Format.eprintf "error: %s@." e;
        exit 1
      | Ok plan ->
        Format.printf "greedy protection plan: %a@." Topoguard.Defense.pp_plan plan
    end
  in
  let minimal =
    Arg.(value & flag & info [ "minimal" ]
           ~doc:"Search for a smallest protection set (iterative deepening).")
  in
  Cmd.v
    (Cmd.info "defend"
       ~doc:"Synthesise integrity protections that block all stealthy              attacks achieving the target increase.")
    Term.(const run $ file_arg $ mode_arg $ base_arg $ minimal $ stats_term)

(* ---- contingency ---- *)

let contingency_cmd =
  let run file secure jobs stats =
    let spec = load_spec file in
    let topo = Grid.Topology.make spec.Grid.Spec.grid in
    with_stats stats @@ fun () ->
    let result =
      if secure then Opf.Contingency.sc_opf topo
      else Opf.Float_opf.solve topo
    in
    match result with
    | Opf.Dc_opf.Dispatch d ->
      Format.printf "dispatch cost: $%s@." (qs ~d:2 d.Opf.Dc_opf.cost);
      let base_flows = Array.map Q.to_float d.Opf.Dc_opf.flows in
      let violations =
        Opf.Contingency.screen ~jobs:(resolve_jobs jobs) topo ~base_flows
      in
      if violations = [] then Format.printf "N-1 secure (no post-outage overloads)@."
      else
        List.iter
          (fun (v : Opf.Contingency.violation) ->
            Format.printf
              "outage of line %d overloads line %d: %.4f pu vs rating %.4f@."
              (v.Opf.Contingency.outage + 1)
              (v.Opf.Contingency.overloaded + 1)
              v.Opf.Contingency.post_flow v.Opf.Contingency.rating)
          violations
    | Opf.Dc_opf.Infeasible ->
      Format.printf "OPF infeasible@.";
      exit 1
    | Opf.Dc_opf.Unbounded ->
      Format.printf "OPF unbounded@.";
      exit 1
  in
  let secure =
    Arg.(value & flag & info [ "secure" ]
           ~doc:"Dispatch with the security-constrained OPF before screening.")
  in
  Cmd.v
    (Cmd.info "contingency"
       ~doc:"N-1 contingency screening of the (security-constrained) OPF              dispatch.")
    Term.(const run $ file_arg $ secure $ jobs_arg $ stats_term)

(* ---- acpf ---- *)

let acpf_cmd =
  let run file base =
    let spec = load_spec file in
    let b = base_state_of spec base in
    let net = Acpf.Ac.of_dc ~gen:b.Attack.Base_state.gen spec.Grid.Spec.grid in
    match Acpf.Ac.solve net with
    | Error e ->
      Format.eprintf "AC power flow failed: %s@." e;
      exit 1
    | Ok s ->
      Format.printf "converged in %d iterations; losses %.4f pu@."
        s.Acpf.Ac.iterations s.Acpf.Ac.losses;
      Array.iteri
        (fun j v ->
          Format.printf "bus %d: V = %.4f pu, theta = %.4f rad@." (j + 1) v
            s.Acpf.Ac.va.(j))
        s.Acpf.Ac.vm
  in
  Cmd.v
    (Cmd.info "acpf"
       ~doc:"Full AC power flow (Newton-Raphson) at the base operating point.")
    Term.(const run $ file_arg $ base_arg)

(* ---- serve / submit ---- *)

let socket_arg =
  Arg.(value & opt string "/tmp/topoguard.sock"
       & info [ "socket" ] ~docv:"PATH"
           ~doc:"Unix-domain socket the scenario service listens on.")

(* transport addresses: tcp:HOST:PORT | unix:PATH | bare path = unix *)
let endpoint_conv =
  let parse s =
    match Serve.Transport.endpoint_of_string s with
    | Ok e -> Ok e
    | Error e -> Error (`Msg e)
  in
  let print ppf e =
    Format.pp_print_string ppf (Serve.Transport.endpoint_to_string e)
  in
  Arg.conv (parse, print)

(* inclusive hash ranges, "LO-HI" over Store.Canonical.point *)
let range_conv =
  let parse s =
    match String.index_opt s '-' with
    | Some i -> (
      let lo = String.sub s 0 i
      and hi = String.sub s (i + 1) (String.length s - i - 1) in
      match (int_of_string_opt lo, int_of_string_opt hi) with
      | Some lo, Some hi when lo >= 0 && hi >= lo -> Ok (lo, hi)
      | _ -> Error (`Msg (Printf.sprintf "bad range %S (want LO-HI)" s)))
    | None -> Error (`Msg (Printf.sprintf "bad range %S (want LO-HI)" s))
  in
  let print ppf (lo, hi) = Format.fprintf ppf "%d-%d" lo hi in
  Arg.conv (parse, print)

let serve_cmd =
  let run socket listen jobs queue_cap cache_mb journal timeout verbose
      access_log trace sync_peers sync_ranges =
    let cfg =
      {
        Serve.Server.socket_path = socket;
        listen;
        jobs = max 1 (resolve_jobs jobs);
        queue_capacity = queue_cap;
        cache_bytes = cache_mb * 1024 * 1024;
        journal;
        default_timeout = timeout;
        max_terminal_jobs =
          (Serve.Server.default_config ~socket_path:socket).Serve.Server
            .max_terminal_jobs;
        verbose;
        access_log;
        trace;
        sync_peers;
        sync_ranges;
        max_line = Serve.Protocol.Frame.default_max_line;
      }
    in
    match Serve.Server.run cfg with
    | Ok () -> ()
    | Error e ->
      Format.eprintf "error: %s@." e;
      exit 1
  in
  let queue_cap =
    Arg.(value & opt int 64
         & info [ "queue-cap" ] ~docv:"N"
             ~doc:"Bound on queued-not-yet-running jobs; a full queue \
                   rejects submissions with a $(b,retry_after) hint instead \
                   of buffering unboundedly.")
  in
  let cache_mb =
    Arg.(value & opt int 64
         & info [ "cache-mb" ] ~docv:"MB"
             ~doc:"Byte budget (MiB) of the in-memory result store; least \
                   recently used entries are evicted past it.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"Append-only journal persisting the result store across \
                   restarts.  A truncated tail record (crash mid-write) is \
                   dropped on reopen, never fatal.")
  in
  let timeout =
    Arg.(value & opt float 300.
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Default per-job wall-clock limit when a submission does \
                   not carry its own.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ] ~doc:"Log job lifecycle events to stderr.")
  in
  let access_log =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~doc:"Append one JSON object per request and per finished job \
                   to $(docv) (request id, verb, outcome, cache verdict, \
                   queue wait, latency).  An unopenable path is a startup \
                   error.")
  in
  let listen =
    Arg.(value & opt (some endpoint_conv) None
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Listen on $(docv) ($(b,tcp:HOST:PORT) or \
                   $(b,unix:PATH)) instead of the $(b,--socket) path; \
                   fleet shards listen on loopback TCP.")
  in
  let sync_peers =
    Arg.(value & opt_all endpoint_conv []
         & info [ "sync-peer" ] ~docv:"ADDR"
             ~doc:"Before accepting connections, pull cached results from \
                   this running peer (repeatable): a restarted shard \
                   rejoins the fleet warm.  A peer that is down only \
                   costs cache warmth, never startup.")
  in
  let sync_ranges =
    Arg.(value & opt_all range_conv []
         & info [ "sync-range" ] ~docv:"LO-HI"
             ~doc:"Restrict $(b,--sync-peer) pulls to keys whose hash \
                   point falls in the inclusive range $(docv) \
                   (repeatable; the shard's ring arcs).  No ranges pulls \
                   everything.")
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Run the resident scenario service: accepts impact-analysis \
             jobs over a Unix-domain or TCP stream socket (line-delimited \
             JSON), answers repeats from a content-addressed result \
             cache, and drains gracefully on SIGTERM (exit 0).  Exits 1 \
             on startup failure (socket in use, unreadable journal).")
    Term.(
      const run $ socket_arg $ listen $ jobs_arg $ queue_cap $ cache_mb
      $ journal $ timeout $ verbose $ access_log $ trace_term $ sync_peers
      $ sync_ranges)

let submit_cmd =
  let run files connect socket batch mode base increase max_candidates
      single_line backend timeout journal wait_timeout trace =
    with_trace trace @@ fun () ->
    (* one client-minted trace context rides the request envelope, so the
       server (or coordinator and shard) records its spans under an id
       this side chose — the merged timeline correlates on it *)
    let trace_ctx =
      if Obs.Trace.enabled () then
        Some (Obs.Trace.new_trace_id (), Obs.Trace.new_span_id ())
      else None
    in
    let client_span f =
      Obs.Trace.with_context trace_ctx (fun () ->
          Obs.Trace.with_span "client.submit" f)
    in
    let endpoint =
      match connect with
      | Some e -> e
      | None -> Serve.Transport.Unix_sock socket
    in
    let read_grid file =
      try
        let ic = open_in_bin file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      with Sys_error e ->
        Format.eprintf "error: %s@." e;
        exit 2
    in
    let sub_of grid =
      {
        Serve.Protocol.grid;
        mode;
        base;
        increase;
        max_candidates;
        single_line;
        backend;
        timeout;
      }
    in
    let print_result j = print_endline (Obs.Json.to_string j) in
    if batch then begin
      (* one submit_batch round trip for every file, then await each *)
      let items = List.map (fun f -> (f, sub_of (read_grid f))) files in
      match Serve.Client.connect_endpoint endpoint with
      | Error e ->
        Format.eprintf "error: %s@." e;
        exit 1
      | Ok client -> (
        let fail e =
          Serve.Client.close client;
          Format.eprintf "error: %s@." e;
          exit 1
        in
        match
          client_span (fun () ->
              Serve.Client.submit_batch ?trace:trace_ctx client
                (List.map snd items))
        with
        | Error e -> fail e
        | Ok resp -> (
          match
            (Obs.Json.member "ok" resp, Obs.Json.member "results" resp)
          with
          | Some (Obs.Json.Bool true), Some (Obs.Json.List results)
            when List.length results = List.length items ->
            let failures = ref 0 in
            List.iter2
              (fun (file, _) item ->
                match
                  (Obs.Json.member "ok" item, Obs.Json.member "id" item)
                with
                | Some (Obs.Json.Bool true), Some (Obs.Json.Int id) -> (
                  let cached =
                    match Obs.Json.member "cached" item with
                    | Some (Obs.Json.Bool b) -> b
                    | _ -> false
                  in
                  match
                    Serve.Client.await client ~id ~timeout:wait_timeout ()
                  with
                  | Ok ("done", Some result) ->
                    Format.printf "%s: done%s@." file
                      (if cached then " (cached)" else "");
                    print_result result
                  | Ok (status, _) ->
                    incr failures;
                    Format.printf "%s: %s@." file status
                  | Error e ->
                    incr failures;
                    Format.eprintf "%s: error: %s@." file e)
                | _ ->
                  incr failures;
                  let reason =
                    match Obs.Json.member "error" item with
                    | Some (Obs.Json.String e) -> e
                    | _ -> "malformed batch item response"
                  in
                  Format.eprintf "%s: error: %s@." file reason)
              items results;
            Serve.Client.close client;
            if !failures > 0 then exit 1
          | _ -> fail "malformed batch response"))
    end
    else begin
    let file =
      match files with
      | [ f ] -> f
      | _ ->
        Format.eprintf "error: multiple FILEs need --batch@.";
        exit 2
    in
    let sub = sub_of (read_grid file) in
    let offline reason =
      match journal with
      | None ->
        Format.eprintf "error: %s@." reason;
        exit 1
      | Some journal -> (
        (* no server: answer from the warm cache on disk if we can *)
        match Grid.Spec.parse sub.Serve.Protocol.grid with
        | Error e ->
          Format.eprintf "error: %s@." e;
          exit 2
        | Ok spec -> (
          match Serve.Client.offline_lookup ~journal ~spec ~submit:sub with
          | Ok (Some result) ->
            Format.printf "offline cache hit (%s)@." reason;
            print_result result
          | Ok None ->
            Format.eprintf "error: %s, and the journal has no cached result@."
              reason;
            exit 1
          | Error e ->
            Format.eprintf "error: %s@." e;
            exit 1))
    in
    match Serve.Client.connect_endpoint endpoint with
    | Error e -> offline e
    | Ok client -> (
      let fail e =
        Serve.Client.close client;
        Format.eprintf "error: %s@." e;
        exit 1
      in
      (* queue-full rejections are retried (honouring retry_after)
         until the wait budget runs out *)
      client_span @@ fun () ->
      match
        Serve.Client.submit_retry ?trace:trace_ctx client sub
          ~timeout:wait_timeout ()
      with
      | Error e -> fail e
      | Ok resp -> (
        match Obs.Json.member "ok" resp with
        | Some (Obs.Json.Bool true) -> (
          let id =
            match Obs.Json.member "id" resp with
            | Some (Obs.Json.Int id) -> id
            | _ -> fail "malformed submit response"
          in
          let cached =
            match Obs.Json.member "cached" resp with
            | Some (Obs.Json.Bool b) -> b
            | _ -> false
          in
          match Serve.Client.await client ~id ~timeout:wait_timeout () with
          | Error e -> fail e
          | Ok ("done", Some result) ->
            Format.printf "job %d: done%s@." id
              (if cached then " (cached)" else "");
            print_result result;
            Serve.Client.close client
          | Ok ("done", None) -> fail "result missing"
          | Ok (status, _) ->
            Format.printf "job %d: %s@." id status;
            Serve.Client.close client;
            exit 1)
        | _ -> (
          match Obs.Json.member "error" resp with
          | Some (Obs.Json.String "queue_full") ->
            let hint =
              match Obs.Json.member "retry_after" resp with
              | Some (Obs.Json.Float s) -> Printf.sprintf " (retry in %gs)" s
              | _ -> ""
            in
            fail ("server queue full" ^ hint)
          | Some (Obs.Json.String e) -> fail e
          | _ -> fail "malformed response")))
    end
  in
  let enum_str l = Arg.enum (List.map (fun s -> (s, s)) l) in
  let mode =
    Arg.(value & opt (enum_str [ "topo"; "state"; "ufdi" ]) "topo"
         & info [ "mode" ] ~docv:"MODE"
             ~doc:"Attack mode: $(b,topo), $(b,state), or $(b,ufdi).")
  in
  let base =
    Arg.(value
         & opt (enum_str [ "opf"; "proportional"; "case-study" ]) "case-study"
         & info [ "base" ] ~docv:"KIND"
             ~doc:"Observed operating point: $(b,opf), $(b,proportional), \
                   or $(b,case-study).")
  in
  let increase =
    Arg.(value & opt (some string) None
         & info [ "increase" ] ~docv:"PCT"
             ~doc:"Override the target cost increase (percent).")
  in
  let max_candidates =
    Arg.(value & opt int 200
         & info [ "max-candidates" ] ~docv:"N"
             ~doc:"Bound on candidate attack vectors to examine.")
  in
  let single_line =
    Arg.(value & flag
         & info [ "single-line" ]
             ~doc:"Restrict to single-line attacks (closed-form path).")
  in
  let backend =
    Arg.(value & opt (enum_str [ "lp"; "smt"; "factors" ]) "lp"
         & info [ "backend" ] ~docv:"BACKEND"
             ~doc:"OPF verification backend: $(b,lp) (exact), $(b,smt) \
                   (bounded queries), or $(b,factors) (shift factors).")
  in
  let timeout =
    Arg.(value & opt float 0.
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-job wall-clock limit; 0 uses the server default.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:"If no server is listening, answer from this store \
                   journal instead (offline mode): a scenario any previous \
                   server run has solved needs no server at all.")
  in
  let wait_timeout =
    Arg.(value & opt float 600.
         & info [ "wait" ] ~docv:"SECONDS"
             ~doc:"Give up polling for the result after $(docv) seconds.")
  in
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Grid file(s) in the paper's text format; more than one \
                 needs $(b,--batch).")
  in
  let connect =
    Arg.(value & opt (some endpoint_conv) None
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Reach the server at $(docv) ($(b,tcp:HOST:PORT) or \
                   $(b,unix:PATH)) instead of the $(b,--socket) path — \
                   e.g. a fleet coordinator.")
  in
  let batch =
    Arg.(value & flag
         & info [ "batch" ]
             ~doc:"Submit every $(i,FILE) in one $(b,submit_batch) round \
                   trip (per-item results in file order), then await each \
                   job.  Exits 1 if any item fails.")
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:"Submit impact-analysis job(s) to a running $(b,topoguard \
             serve) or $(b,topoguard fleet) instance and wait for the \
             result(s).  Exits 0 when every job completes, 1 when any \
             fails, times out, is cancelled, or no server (and no cached \
             result) is available, 2 on input errors.")
    Term.(
      const run $ files $ connect $ socket_arg $ batch $ mode $ base
      $ increase $ max_candidates $ single_line $ backend $ timeout
      $ journal $ wait_timeout $ trace_term)

(* ---- fleet ---- *)

let fleet_cmd =
  let run listen shards host base_port jobs cache_mb journal_dir vnodes
      verbose access_log trace stats =
    with_stats stats @@ fun () ->
    let cfg =
      {
        Cluster.Fleet.exe = Sys.executable_name;
        listen;
        shards;
        host;
        base_port;
        jobs_per_shard = max 1 (resolve_jobs jobs);
        cache_mb;
        journal_dir;
        vnodes;
        verbose;
        access_log;
        trace;
      }
    in
    match Cluster.Fleet.run cfg with
    | Ok () -> ()
    | Error e ->
      Format.eprintf "error: %s@." e;
      exit 1
  in
  let listen =
    Arg.(value
         & opt endpoint_conv (Serve.Transport.Unix_sock "/tmp/topoguard-fleet.sock")
         & info [ "listen" ] ~docv:"ADDR"
             ~doc:"Coordinator endpoint clients connect to \
                   ($(b,tcp:HOST:PORT) or $(b,unix:PATH)).")
  in
  let shards =
    Arg.(value & opt int 3
         & info [ "shards" ] ~docv:"N" ~doc:"Shard servers to fork.")
  in
  let host =
    Arg.(value & opt string "127.0.0.1"
         & info [ "host" ] ~docv:"HOST"
             ~doc:"Interface the shard servers listen on.")
  in
  let base_port =
    Arg.(value & opt int 7601
         & info [ "base-port" ] ~docv:"PORT"
             ~doc:"Shard $(i,i) listens on TCP port $(docv)+$(i,i).")
  in
  let cache_mb =
    Arg.(value & opt int 64
         & info [ "cache-mb" ] ~docv:"MB"
             ~doc:"Result-store byte budget (MiB) of each shard.")
  in
  let journal_dir =
    Arg.(value & opt (some string) None
         & info [ "journal-dir" ] ~docv:"DIR"
             ~doc:"Persist each shard's result store to \
                   $(docv)/shard-$(i,i).journal, so bounced shards \
                   restart warm.")
  in
  let vnodes =
    Arg.(value & opt int Cluster.Ring.default_vnodes
         & info [ "vnodes" ] ~docv:"N"
             ~doc:"Virtual nodes per shard on the consistent-hash ring.")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose" ]
             ~doc:"Log routing and rebalance events to stderr.")
  in
  let access_log =
    Arg.(value & opt (some string) None
         & info [ "access-log" ] ~docv:"FILE"
             ~doc:"Coordinator access log: one JSON object per request \
                   (request id, verb, outcome, routed shard, trace id, \
                   latency) appended to $(docv); shard $(i,i) appends its \
                   own to $(docv).shard-$(i,i).  An unopenable path is a \
                   startup error.")
  in
  let fleet_trace =
    Arg.(value & opt (some string) None
         & info [ "trace" ] ~docv:"FILE"
             ~doc:"Write the coordinator's Chrome trace to $(docv) on \
                   drain; shard $(i,i) writes its own to \
                   $(docv).shard-$(i,i).  Stitch them with \
                   $(b,tools/trace_merge.exe).")
  in
  Cmd.v
    (Cmd.info "fleet"
       ~doc:"Run a sharded fleet of scenario servers: forks $(b,--shards) \
             copies of $(b,topoguard serve) on loopback TCP, then routes \
             each submission to the shard owning its canonical key on a \
             consistent-hash ring (shard affinity = cache affinity).  \
             Batches fan out per shard; a dead shard is dropped from the \
             ring and its jobs re-routed; SIGTERM (or the shutdown verb) \
             drains every shard and exits 0.  Exits 1 on startup failure \
             (a shard that never came up, endpoint in use).")
    Term.(
      const run $ listen $ shards $ host $ base_port $ jobs_arg $ cache_mb
      $ journal_dir $ vnodes $ verbose $ access_log $ fleet_trace
      $ stats_term)

(* ---- loadgen ---- *)

let loadgen_cmd =
  let run files connect socket rate duration clients warm_pct gens
      max_candidates full sample_every wait report stats =
    with_stats stats @@ fun () ->
    let endpoint =
      match connect with
      | Some e -> e
      | None -> Serve.Transport.Unix_sock socket
    in
    let read_grid file =
      try
        let ic = open_in_bin file in
        let n = in_channel_length ic in
        let s = really_input_string ic n in
        close_in ic;
        s
      with Sys_error e ->
        Format.eprintf "error: %s@." e;
        exit 2
    in
    let bundled = [ 5; 14; 30; 57; 118 ] in
    let synth n =
      let spec =
        if List.mem n bundled then Grid.Test_systems.ieee n
        else
          match Grid.Gen.make ~avg_degree:2.8 n with
          | spec -> spec
          | exception (Invalid_argument m | Failure m) ->
            Format.eprintf "error: --gen %d: %s@." n m;
            exit 2
      in
      Grid.Spec.print spec
    in
    let pool = List.map read_grid files @ List.map synth gens in
    if pool = [] then begin
      Format.eprintf "error: need at least one FILE or --gen BUSES@.";
      exit 2
    end;
    let sub_of ?increase grid =
      {
        Serve.Protocol.grid;
        mode = "topo";
        base = "proportional";
        increase;
        max_candidates;
        single_line = not full;
        backend = "lp";
        timeout = 0.;
      }
    in
    let warm = List.map (fun g -> sub_of g) pool in
    let npool = List.length pool in
    let total = max 1 (int_of_float ((rate *. duration) +. 0.5)) in
    (* a distinct cost-increase target per cold arrival gives each its
       own job key, so the cold share really exercises the solver path
       instead of warming up after one cycle through the pool *)
    let cold =
      List.init total (fun i ->
          sub_of
            ~increase:(Printf.sprintf "%d.%03d" (5 + (i mod 40)) (i mod 997))
            (List.nth pool (i mod npool)))
    in
    let cfg =
      {
        (Cluster.Loadgen.default_config ~endpoint ~warm ~cold) with
        Cluster.Loadgen.rate;
        duration;
        clients;
        warm_pct;
        sample_every;
        await_timeout = wait;
      }
    in
    match Cluster.Loadgen.run cfg with
    | Error e ->
      Format.eprintf "error: %s@." e;
      exit 2
    | Ok r ->
      let json = Cluster.Loadgen.json_of_report r in
      (match report with
      | None -> print_endline (Obs.Json.to_string json)
      | Some path ->
        Obs.write_json_file path json;
        Format.printf "report written to %s@." path);
      Format.eprintf
        "offered %d, accepted %d (%.1f/s achieved), completed %d (%d \
         cached), failed %d, errors %d, lost %d@."
        r.Cluster.Loadgen.offered r.Cluster.Loadgen.accepted
        r.Cluster.Loadgen.achieved_rate r.Cluster.Loadgen.completed
        r.Cluster.Loadgen.cached r.Cluster.Loadgen.failed
        r.Cluster.Loadgen.errors r.Cluster.Loadgen.lost;
      if r.Cluster.Loadgen.lost > 0 then exit 1
  in
  let files =
    Arg.(value & pos_all file []
         & info [] ~docv:"FILE" ~doc:"Grid file(s) forming the scenario pool.")
  in
  let connect =
    Arg.(value & opt (some endpoint_conv) None
         & info [ "connect" ] ~docv:"ADDR"
             ~doc:"Drive the server at $(docv) ($(b,tcp:HOST:PORT) or \
                   $(b,unix:PATH)) instead of the $(b,--socket) path — \
                   e.g. a fleet coordinator.")
  in
  let rate =
    Arg.(value & opt float 20.
         & info [ "rate" ] ~docv:"R"
             ~doc:"Target arrival rate, submissions per second.  The \
                   schedule is open loop: arrival $(i,k) fires at \
                   $(i,k)/$(docv) seconds whether or not earlier arrivals \
                   have been answered, so a server falling behind faces a \
                   growing backlog instead of slowing the generator down.")
  in
  let duration =
    Arg.(value & opt float 5.
         & info [ "duration" ] ~docv:"SECONDS"
             ~doc:"Seconds of offered load.")
  in
  let clients =
    Arg.(value & opt int 4
         & info [ "clients" ] ~docv:"N"
             ~doc:"Concurrent client connections (one domain each) \
                   sharing the arrival schedule.")
  in
  let warm_pct =
    Arg.(value & opt int 80
         & info [ "warm-pct" ] ~docv:"PCT"
             ~doc:"Share of arrivals drawn from the warm (repeating, \
                   cache-hit) set, 0-100; the rest cycle through distinct \
                   cold scenarios that must be solved.")
  in
  let gens =
    Arg.(value & opt_all int []
         & info [ "gen" ] ~docv:"BUSES"
             ~doc:"Add a bundled or synthesized $(docv)-bus grid to the \
                   scenario pool (repeatable).")
  in
  let max_candidates =
    Arg.(value & opt int 40
         & info [ "max-candidates" ] ~docv:"N"
             ~doc:"Candidate bound carried by every submission.")
  in
  let full =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Submit full searches instead of the single-line \
                   closed form (heavier jobs).")
  in
  let sample_every =
    Arg.(value & opt float 0.25
         & info [ "sample-every" ] ~docv:"SECONDS"
             ~doc:"Queue-depth scrape period (a sampler connection polls \
                   the $(b,metrics) verb); 0 disables sampling.")
  in
  let wait =
    Arg.(value & opt float 60.
         & info [ "wait" ] ~docv:"SECONDS"
             ~doc:"Per-answer deadline; an accepted job with no terminal \
                   status by then counts as $(b,lost).")
  in
  let report =
    Arg.(value & opt (some string) None
         & info [ "report" ] ~docv:"FILE"
             ~doc:"Write the JSON report to $(docv) instead of stdout.")
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:"Open-loop sustained-load generator against a running \
             $(b,topoguard serve) or $(b,topoguard fleet) endpoint: fires \
             submissions at a fixed target rate from several client \
             connections, mixes repeating (warm) and distinct (cold) \
             scenarios, samples queue depth over time, and reports \
             achieved rate, per-verb latency quantiles, and error/lost \
             counts as JSON.  Exits 1 when any accepted job was lost, 2 \
             on input or endpoint errors.")
    Term.(
      const run $ files $ connect $ socket_arg $ rate $ duration $ clients
      $ warm_pct $ gens $ max_candidates $ full $ sample_every $ wait
      $ report $ stats_term)

(* ---- journal ---- *)

let journal_cmd =
  let compact =
    let run file =
      match Store.Journal.compact file with
      | Ok c ->
        Format.printf
          "%s: %d live entr(y/ies) kept, %d superseded record(s) dropped, \
           %d byte(s) reclaimed@."
          file c.Store.Journal.live c.Store.Journal.dropped
          c.Store.Journal.reclaimed_bytes
      | Error e ->
        Format.eprintf "error: %s@." e;
        exit 1
    in
    let file =
      Arg.(required & pos 0 (some file) None & info [] ~docv:"JOURNAL"
             ~doc:"Store journal file to compact in place.")
    in
    Cmd.v
      (Cmd.info "compact"
         ~doc:"Rewrite a store journal keeping only the live (last-write) \
               record of each key, via a temporary file and atomic \
               rename — run it on a journal no live server has open.  \
               Exits 1 on an unreadable journal.")
      Term.(const run $ file)
  in
  Cmd.group
    (Cmd.info "journal"
       ~doc:"Maintenance of store journal files ($(b,topoguard serve \
             --journal)).")
    [ compact ]

(* ---- audit ---- *)

let audit_cmd =
  let run files json stats =
    with_stats stats @@ fun () ->
    let parse_failures = ref 0 and audit_errors = ref 0 in
    List.iter
      (fun file ->
        match Grid.Spec.parse_file file with
        | Error e ->
          incr parse_failures;
          Format.eprintf "%s: parse error: %s@." file e
        | Ok spec ->
          let diags = print_diags ~json file (Audit.run spec) in
          audit_errors := !audit_errors + Analysis.Diagnostic.count_errors diags;
          if not json then begin
            Format.printf "%s: %d finding(s), %d error(s)@." file
              (List.length diags)
              (Analysis.Diagnostic.count_errors diags);
            Estimation.Criticality.summary Format.std_formatter spec
          end)
      files;
    if !parse_failures > 0 then exit 2 else if !audit_errors > 0 then exit 1
  in
  let files =
    Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE"
           ~doc:"Input file(s) in the paper's text format (Tables II/III).")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:"Solver-free attack-surface audit: graph structure (bridge \
             lines are statically islanding attacks, articulation buses, \
             radial chains), exact interval bounds on any attack's \
             achievable dispatch cost, and measurement criticality \
             (critical measurements are the stealthy attack surface) — \
             no LP or SMT solve is issued.  Follows with the \
             human-readable security report unless $(b,--json).  Exits \
             1 on audit errors, 2 on parse failures.")
    Term.(const run $ files $ json_flag $ stats_term)

let () =
  let doc = "impact analysis of topology poisoning attacks on OPF" in
  exit
    (Cmd.eval
       (Cmd.group (Cmd.info "topoguard" ~doc)
          [
            lint_cmd; opf_cmd; se_cmd; attack_cmd; impact_cmd; gen_cmd;
            defend_cmd; contingency_cmd; acpf_cmd; audit_cmd; serve_cmd;
            submit_cmd; fleet_cmd; loadgen_cmd; journal_cmd;
          ]))
