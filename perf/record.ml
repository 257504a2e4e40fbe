(* The benchmark recorder: one run of one workload.

     record.exe --workload W --seed N --seconds S --trace 0|1
                [--cli PATH] [--out FILE] [--smoke] [--force-mismatch]

   Run from the repository root (it reads data/*.grid and
   perf/golden/).  Prints every metric by name with its unit and sample
   count, then, as the last line of standard output, one JSON object:
   {"correct", "attempted", "failed", "metrics"} — the end-to-end
   metrics untraced, the per-layer budget with --trace 1.  Exits 1 when
   any answer is wrong or missing, 2 on bad arguments.  See
   perf/README.md for the workloads and metrics. *)

module J = Obs.Json
open Report

let workloads = [ "impact-smt-57"; "impact-closed-118"; "fleet-warm"; "fleet-cold" ]

let rec remove_tree path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> remove_tree (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

(* goldens hold the verdicts of a long seed's run; a run must agree on
   every answer both have *)
let golden_problems ~workload ~seed verdicts =
  let path = Printf.sprintf "perf/golden/seed%d.json" seed in
  if not (Sys.file_exists path) then []
  else
    match read_json path with
    | Error e -> [ "golden: " ^ e ]
    | Ok j -> (
      match J.member workload j with
      | Some (J.List expected) ->
        List.concat
          (List.mapi
             (fun i v ->
               match List.nth_opt expected i with
               | Some (J.String g) when g <> v ->
                 [ Printf.sprintf "answer %d: %S, golden %S" i v g ]
               | _ -> [])
             verdicts)
      | _ -> [])

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 20. and trace = ref 0 in
  let cli = ref "_build/default/bin/topoguard_cli.exe" and out = ref "" in
  let smoke = ref false and force_mismatch = ref false in
  let usage = "record.exe --workload W --seed N --seconds S --trace 0|1 [options]" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, " " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N inputs are generated from this seed (default 1)");
      ("--seconds", Arg.Set_float seconds, "S measure for S seconds (default 20)");
      ("--trace", Arg.Set_int trace, "0|1 1 reports the per-layer budget instead");
      ("--cli", Arg.Set_string cli, "PATH the topoguard binary the fleets run");
      ("--out", Arg.Set_string out, "FILE also write the full report as JSON");
      ("--smoke", Arg.Set smoke, " one set-up and two scenarios, for CI");
      ( "--force-mismatch",
        Arg.Set force_mismatch,
        " corrupt the first answer before checking (the run must fail)" );
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    usage;
  if not (List.mem !workload workloads) then begin
    prerr_endline ("record: --workload must be one of " ^ String.concat ", " workloads);
    exit 2
  end;
  if !trace <> 0 && !trace <> 1 then begin
    prerr_endline "record: --trace must be 0 or 1";
    exit 2
  end;
  if not (!seconds > 0.) then begin
    prerr_endline "record: --seconds must be positive";
    exit 2
  end;
  Obs.Clock.set Unix.gettimeofday;
  Obs.Trace.set_pid (Unix.getpid ());
  Obs.Trace.set_capacity (1 lsl 16);
  let dir = Filename.concat ".perf_tmp" (Printf.sprintf "run-%d" (Unix.getpid ())) in
  let setups = if !smoke then 1 else 3 in
  let traced = !trace = 1 in
  let go () =
    if not (Sys.file_exists ".perf_tmp") then Sys.mkdir ".perf_tmp" 0o755;
    Sys.mkdir dir 0o755;
    let seed = !seed and seconds = !seconds and force_mismatch = !force_mismatch in
    let offline w =
      Offline.run w ~seed ~seconds ~trace:traced ~setups
        ~scenarios:(if !smoke then 2 else max_int) ~force_mismatch
    in
    let fleet kind =
      Fleet_load.run kind ~cli:!cli ~dir ~seed ~seconds ~trace:traced ~setups ~force_mismatch
    in
    match !workload with
    | "impact-smt-57" -> offline Offline.smt_57
    | "impact-closed-118" -> offline Offline.closed_118
    | "fleet-warm" -> fleet Fleet_load.Warm
    | _ -> fleet Fleet_load.Cold
  in
  let cleanup () =
    List.iter Fleet_load.stop !Fleet_load.live;
    remove_tree dir
  in
  let r =
    match Fun.protect ~finally:cleanup go with
    | r -> r
    | exception e ->
      prerr_endline ("record: " ^ Printexc.to_string e);
      exit 1
  in
  let problems = r.problems @ golden_problems ~workload:!workload ~seed:!seed r.verdicts in
  let failed = min r.attempted (List.length problems) in
  let correct = problems = [] in
  let run_digest = digest_of_list r.verdicts in
  Printf.printf "%s seed %d, %gs, %s\n" !workload !seed !seconds
    (if traced then "traced: per-layer budget" else "untraced: end-to-end");
  List.iter print_metric (r.metrics @ r.extra);
  print_metric (metric "failed_ratio" "fraction" (ratio (float_of_int failed) (float_of_int r.attempted)));
  Printf.printf "  %-42s %s (%d answers)\n" "verdict_digest" run_digest (List.length r.verdicts);
  List.iteri (fun i p -> if i < 20 then prerr_endline ("record: WRONG: " ^ p)) problems;
  let line =
    J.Obj
      [
        ("correct", J.Bool correct);
        ("attempted", J.Int r.attempted);
        ("failed", J.Int failed);
        ("metrics", json_of_metrics r.metrics);
      ]
  in
  if !out <> "" then
    Obs.write_json_file !out
      (J.Obj
         [
           ("workload", J.String !workload);
           ("seed", J.Int !seed);
           ("seconds", J.Float !seconds);
           ("trace", J.Int !trace);
           ("correct", J.Bool correct);
           ("attempted", J.Int r.attempted);
           ("failed", J.Int failed);
           ("metrics", json_of_metrics ~counts:true r.metrics);
           ("extra", json_of_metrics ~counts:true r.extra);
           ("verdict_digest", J.String run_digest);
           ("verdicts", J.List (List.map (fun v -> J.String v) r.verdicts));
           ("problems", J.List (List.map (fun p -> J.String p) problems));
         ]);
  print_endline (J.to_string line);
  exit (if correct then 0 else 1)
