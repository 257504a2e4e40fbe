(* Compare two sets of benchmark reports metric by metric against the
   bounds in BENCHMARK.json.

     compare.exe BENCHMARK.json BASE CHANGE

   BASE and CHANGE are report files written by record.exe --out (one
   report, or a JSON list of them) or directories of such files.  For
   every workload, one row; for every end-to-end metric in it, the
   change's median relative to the base's and a verdict:

     ok          within the metric's bound
     better      better by more than the bound
     worse       worse by more than the bound: a regression
     unresolved  a set's quartile spread exceeds the bound, and neither
                 set's runs all beat the other's

   Answers must agree as well: for a seed run in both sets, the verdict
   lines must be equal wherever both runs have them.
   Exits 1 on a regression or a disagreement, 2 on unreadable input. *)

module J = Obs.Json
open Report

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("compare: " ^ s);
      exit 2)
    fmt

let load path =
  let files =
    if Sys.is_directory path then
      Sys.readdir path |> Array.to_list
      |> List.filter (fun f -> Filename.check_suffix f ".json")
      |> List.sort compare
      |> List.map (Filename.concat path)
    else [ path ]
  in
  List.concat_map
    (fun f ->
      match read_json f with
      | Error e -> die "%s" e
      | Ok (J.List reports) -> reports
      | Ok report -> [ report ])
    files

(* quartiles as Python's statistics.quantiles(values, n=4) computes
   them (its default "exclusive" method) *)
let quartiles values =
  let a = Array.of_list values in
  Array.sort Float.compare a;
  let n = Array.length a in
  if n < 2 then (a.(0), a.(0), a.(0))
  else
    let q i =
      let m = n + 1 in
      let j = max 1 (min (n - 1) (i * m / 4)) in
      let delta = float_of_int ((i * m) - (j * 4)) in
      ((a.(j - 1) *. (4. -. delta)) +. (a.(j) *. delta)) /. 4.
    in
    (q 1, q 2, q 3)

type bound = { name : string; lower_is_better : bool; bound : float }

let bounds benchmark =
  match J.member "end_to_end" benchmark with
  | Some (J.List ms) ->
    List.map
      (fun m ->
        match (str_member "name" m, str_member "better" m, J.member "bound" m) with
        | Some name, Some better, Some b -> (
          match float_of_json b with
          | Some bound -> { name; lower_is_better = better = "lower"; bound }
          | None -> die "bound of %s is not a number" name)
        | _ -> die "malformed end_to_end entry %s" (J.to_string m))
      ms
  | _ -> die "BENCHMARK.json has no end_to_end list"

let value_of report name =
  match J.member "metrics" report with
  | Some ms -> Option.bind (Option.bind (J.member name ms) (J.member "value")) float_of_json
  | None -> None

let untraced reports workload =
  List.filter
    (fun r ->
      str_member "workload" r = Some workload && int_member "trace" r = Some 0)
    reports

(* the cell of one metric on one workload, and whether it regressed *)
let verdict b base change =
  let values rs = List.filter_map (fun r -> value_of r b.name) rs in
  match (values base, values change) with
  | [], _ | _, [] -> ("missing", false)
  | vb, vc ->
    let _, mb, _ = quartiles vb and _, mc, _ = quartiles vc in
    let spread v =
      let q1, m, q3 = quartiles v in
      ratio (q3 -. q1) m
    in
    (* positive = the change is worse *)
    let worse_by =
      let rel = ratio (mc -. mb) mb in
      if b.lower_is_better then rel else -.rel
    in
    let beats x y = if b.lower_is_better then x < y else x > y in
    let all_better = List.for_all (fun c -> List.for_all (fun v -> beats c v) vb) vc in
    let all_worse = List.for_all (fun c -> List.for_all (fun v -> beats v c) vb) vc in
    let word =
      if spread vb > b.bound || spread vc > b.bound then
        if all_better then "better" else if all_worse then "worse" else "unresolved"
      else if worse_by > b.bound then "worse"
      else if worse_by < -.b.bound then "better"
      else "ok"
    in
    let sign = if b.lower_is_better then 1. else -1. in
    (Printf.sprintf "%s %+.1f%%" word (100. *. sign *. worse_by), word = "worse")

let verdicts r =
  match J.member "verdicts" r with
  | Some (J.List l) -> List.filter_map (function J.String s -> Some s | _ -> None) l
  | _ -> []

(* per seed and workload, the two sets' answers must agree where both
   have them *)
let disagreements base change =
  List.concat_map
    (fun c ->
      List.filter_map
        (fun b ->
          if str_member "workload" b = str_member "workload" c
             && int_member "seed" b = int_member "seed" c
          then
            let rec first_diff i = function
              | x :: xs, y :: ys -> if x <> y then Some i else first_diff (i + 1) (xs, ys)
              | _ -> None
            in
            Option.map
              (fun i ->
                Printf.sprintf "%s seed %d: answer %d differs"
                  (Option.value ~default:"?" (str_member "workload" c))
                  (Option.value ~default:0 (int_member "seed" c))
                  i)
              (first_diff 0 (verdicts b, verdicts c))
          else None)
        base)
    change

let () =
  match Sys.argv with
  | [| _; bench; base; change |] ->
    let benchmark = match read_json bench with Ok j -> j | Error e -> die "%s" e in
    let bs = bounds benchmark in
    let base = load base and change = load change in
    let workloads =
      match J.member "workloads" benchmark with
      | Some (J.List ws) -> List.filter_map (str_member "name") ws
      | _ -> die "BENCHMARK.json has no workloads list"
    in
    Printf.printf "%-20s" "workload";
    List.iter (fun b -> Printf.printf " %-22s" b.name) bs;
    print_newline ();
    let regressed = ref false in
    List.iter
      (fun w ->
        let rb = untraced base w and rc = untraced change w in
        Printf.printf "%-20s" (Printf.sprintf "%s (%d/%d)" w (List.length rb) (List.length rc));
        List.iter
          (fun b ->
            let cell, worse = verdict b rb rc in
            if worse then regressed := true;
            Printf.printf " %-22s" cell)
          bs;
        print_newline ())
      workloads;
    let diffs = disagreements base change in
    List.iter (fun d -> print_endline ("answers disagree: " ^ d)) diffs;
    exit (if !regressed || diffs <> [] then 1 else 0)
  | _ ->
    prerr_endline "usage: compare.exe BENCHMARK.json BASE CHANGE";
    exit 2
