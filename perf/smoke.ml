(* Keeps the benchmark harness alive in CI: every workload, shrunk to
   one set-up, two scenarios and about a second of load, untraced and
   traced, with seed 1 so the goldens apply.  Each run must exit 0 and
   end with a result line whose keys and metric names and units are
   exactly what BENCHMARK.json declares; a run with a forced wrong
   answer must fail.

     smoke.exe RECORD CLI BENCHMARK.json   (from the repository root)

   CI entry point: dune build @bench-record-smoke *)

module J = Obs.Json
open Report

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("bench-record-smoke: FAIL: " ^ s);
      exit 1)
    fmt

(* run record.exe, returning its exit code and last stdout line *)
let record exe args =
  let ic = Unix.open_process_args_in exe (Array.of_list (exe :: args)) in
  let rec last acc = match input_line ic with l -> last (Some l) | exception End_of_file -> acc in
  let line = last None in
  let code =
    match Unix.close_process_in ic with
    | Unix.WEXITED n -> n
    | Unix.WSIGNALED _ | Unix.WSTOPPED _ -> -1
  in
  (code, line)

let declared benchmark key =
  match J.member key benchmark with
  | Some (J.List ms) ->
    List.filter_map
      (fun m ->
        match (str_member "name" m, str_member "unit" m) with
        | Some n, Some u -> Some (n, u)
        | _ -> None)
      ms
  | _ -> fail "BENCHMARK.json has no %s list" key

let check_line ~what ~expected line =
  let j =
    match Option.map J.of_string line with
    | Some (Ok j) -> j
    | _ -> fail "%s: last line is not JSON: %s" what (Option.value ~default:"" line)
  in
  (match j with
  | J.Obj fields ->
    let keys = List.sort compare (List.map fst fields) in
    if keys <> [ "attempted"; "correct"; "failed"; "metrics" ] then
      fail "%s: result keys %s" what (String.concat "," keys)
  | _ -> fail "%s: result is not an object" what);
  if J.member "correct" j <> Some (J.Bool true) then fail "%s: not correct" what;
  (match (int_member "attempted" j, int_member "failed" j) with
  | Some a, Some 0 when a >= 1 -> ()
  | _ -> fail "%s: attempted/failed %s" what (J.to_string j));
  match J.member "metrics" j with
  | Some (J.Obj ms) ->
    let got = List.sort compare (List.map fst ms) in
    let want = List.sort compare (List.map fst expected) in
    if got <> want then
      fail "%s: metrics {%s}, declared {%s}" what (String.concat "," got) (String.concat "," want);
    List.iter
      (fun (name, m) ->
        (match Option.bind (J.member "value" m) float_of_json with
        | Some v when Float.is_finite v -> ()
        | _ -> fail "%s: %s has no finite value" what name);
        if str_member "unit" m <> List.assoc_opt name expected then
          fail "%s: %s has unit %s" what name (J.to_string m))
      ms
  | _ -> fail "%s: no metrics object" what

let () =
  match Sys.argv with
  | [| _; exe; cli; bench |] ->
    let benchmark = match read_json bench with Ok j -> j | Error e -> fail "%s" e in
    let workloads =
      match J.member "workloads" benchmark with
      | Some (J.List ws) -> List.filter_map (str_member "name") ws
      | _ -> fail "BENCHMARK.json has no workloads list"
    in
    let args w trace =
      [ "--workload"; w; "--seed"; "1"; "--seconds"; "1"; "--trace"; trace; "--smoke"; "--cli"; cli ]
    in
    let t0 = Unix.gettimeofday () in
    List.iter
      (fun w ->
        List.iter
          (fun (trace, key) ->
            let what = Printf.sprintf "%s --trace %s" w trace in
            let code, line = record exe (args w trace) in
            if code <> 0 then fail "%s exited %d" what code;
            check_line ~what ~expected:(declared benchmark key) line)
          [ ("0", "end_to_end"); ("1", "per_layer") ];
        let code, _ = record exe (args w "0" @ [ "--force-mismatch" ]) in
        if code <> 1 then fail "%s with a forced wrong answer exited %d, not 1" w code)
      workloads;
    Printf.printf "bench-record-smoke: OK (%d workloads, traced and untraced, forced mismatches caught) in %.1fs\n"
      (List.length workloads) (Unix.gettimeofday () -. t0)
  | _ -> fail "usage: smoke.exe RECORD CLI BENCHMARK.json"
