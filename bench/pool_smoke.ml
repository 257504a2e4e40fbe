(* pool-smoke: CI guard for the multicore work pool and the atomicity of
   the observability counters under it.

   Runs the 5-bus closed-form impact sweep (targets 1%..6%) with
   --jobs 2, cross-checks every parallel outcome (poisoned cost and
   examined-candidate count included) against the sequential run,
   hammers one Obs counter from 4 domains to prove totals are exact
   rather than approximately merged, then writes the stats snapshot as
   JSON and validates that it parses and that
   attack.loop.candidates equals the independently accumulated
   per-outcome examined counts.

   CI entry point: dune build @pool-smoke *)

module Q = Numeric.Rat
module I = Topoguard.Impact

let fail fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("pool-smoke: FAIL: " ^ s);
      exit 1)
    fmt

let read_file path =
  let ic = open_in_bin path in
  Fun.protect
    ~finally:(fun () -> close_in_noerr ic)
    (fun () -> really_input_string ic (in_channel_length ic))

let () =
  Obs.Clock.set Unix.gettimeofday;
  Obs.set_enabled true;

  (* 1. atomic-counter hammer: 4 domains, 50k increments each *)
  let hammer = Obs.Counter.make "pool_smoke.hammer" in
  Pool.with_pool ~jobs:4 (fun pool ->
      Pool.iter pool
        ~f:(fun () ->
          for _ = 1 to 50_000 do
            Obs.Counter.incr hammer
          done)
        [ (); (); (); () ]);
  if Obs.Counter.get hammer <> 200_000 then
    fail "hammer counter %d, expected exactly 200000 (counters not atomic?)"
      (Obs.Counter.get hammer);

  (* 1b. histogram hammer: 4 domains, 50k observations each, alternating
     1.0 and 3.0 — count, sum, min/max, and per-bucket totals must all be
     exact, not approximately merged *)
  let hhist = Obs.Histogram.make "pool_smoke.hammer_hist" in
  Pool.with_pool ~jobs:4 (fun pool ->
      Pool.iter pool
        ~f:(fun () ->
          for i = 1 to 50_000 do
            Obs.Histogram.observe hhist (if i land 1 = 0 then 1.0 else 3.0)
          done)
        [ (); (); (); () ]);
  let entry = Obs.Histogram.read hhist in
  if entry.Obs.h_count <> 200_000 then
    fail "histogram count %d, expected exactly 200000 (not atomic?)"
      entry.Obs.h_count;
  if entry.Obs.h_sum <> 400_000.0 then
    fail "histogram sum %g, expected exactly 400000" entry.Obs.h_sum;
  let bucket le =
    match List.assoc_opt le entry.Obs.h_buckets with Some n -> n | None -> 0
  in
  (* 1.0 lands exactly on the le=1 bound; 3.0 in the (2,4] bucket *)
  if bucket 1.0 <> 100_000 then
    fail "le=1 bucket %d, expected exactly 100000" (bucket 1.0);
  if bucket 4.0 <> 100_000 then
    fail "le=4 bucket %d, expected exactly 100000" (bucket 4.0);
  if entry.Obs.h_min <> Some 1.0 || entry.Obs.h_max <> Some 3.0 then
    fail "histogram min/max wrong under parallel observation";

  (* 2. the 5-bus sweep, closed form, --jobs 2, vs the sequential run *)
  let scenario0 = Grid.Test_systems.case_study_1 () in
  let base =
    match
      Attack.Base_state.of_dispatch scenario0.Grid.Spec.grid
        ~gen:(Grid.Test_systems.case_study_base_dispatch ())
    with
    | Ok b -> b
    | Error e -> fail "base state: %s" e
  in
  let config jobs =
    {
      I.default_config with
      I.mode = Attack.Encoder.Topology_only;
      max_topology_changes = Some 1;
      use_closed_form = true;
      jobs;
    }
  in
  let before = Obs.snapshot () in
  let examined = ref 0 in
  let found = ref 0 in
  List.iter
    (fun target ->
      let scenario =
        { scenario0 with Grid.Spec.min_increase_pct = Q.of_int target }
      in
      let run jobs = I.analyze ~config:(config jobs) ~scenario ~base () in
      let seq = run 1 and par = run 2 in
      (match seq with
      | I.Attack_found s -> examined := !examined + s.I.candidates
      | I.No_attack { candidates } -> examined := !examined + candidates
      | I.Base_infeasible e -> fail "base infeasible at %d%%: %s" target e);
      (match par with
      | I.Attack_found s -> examined := !examined + s.I.candidates
      | I.No_attack { candidates } -> examined := !examined + candidates
      | I.Base_infeasible e -> fail "base infeasible at %d%% (par): %s" target e);
      match (seq, par) with
      | I.Attack_found a, I.Attack_found b ->
        incr found;
        if a.I.poisoned_cost <> b.I.poisoned_cost then
          fail "target %d%%: parallel poisoned cost differs from sequential"
            target;
        if
          a.I.vector.Attack.Vector.excluded
          <> b.I.vector.Attack.Vector.excluded
          || a.I.vector.Attack.Vector.included
             <> b.I.vector.Attack.Vector.included
        then fail "target %d%%: parallel vector differs from sequential" target;
        if a.I.candidates <> b.I.candidates then
          fail "target %d%%: parallel examined %d candidates, sequential %d"
            target b.I.candidates a.I.candidates
      | I.No_attack a, I.No_attack b ->
        if a.candidates <> b.candidates then
          fail "target %d%%: parallel examined %d candidates, sequential %d"
            target b.candidates a.candidates
      | _ ->
        fail "target %d%%: parallel outcome differs from sequential" target)
    [ 1; 2; 3; 4; 5; 6 ];
  if !found = 0 then fail "expected at least one attack in the 5-bus sweep";

  (* 3. counter exactness across the whole sweep: the registry delta must
     equal the sum of examined counts the outcomes reported *)
  let delta = Obs.diff ~before ~after:(Obs.snapshot ()) in
  let counter name =
    match List.assoc_opt name delta.Obs.counters with Some n -> n | None -> 0
  in
  if counter "attack.loop.candidates" <> !examined then
    fail "attack.loop.candidates delta %d <> %d examined candidates"
      (counter "attack.loop.candidates")
      !examined;

  (* 4. the emitted stats JSON parses and carries the counters *)
  let file = Filename.temp_file "pool_smoke" ".json" in
  Obs.write_json_file file (Obs.json_of_snapshot (Obs.snapshot ()));
  let json =
    match Obs.Json.of_string (read_file file) with
    | Ok j -> j
    | Error e -> fail "emitted JSON does not parse: %s" e
  in
  Sys.remove file;
  List.iter
    (fun name ->
      match Obs.Json.member "counters" json with
      | Some counters -> (
        match Obs.Json.member name counters with
        | Some (Obs.Json.Int n) when n > 0 ->
          Printf.printf "pool-smoke: %-28s %d\n" name n
        | _ -> fail "counter %s missing or zero in the JSON snapshot" name)
      | None -> fail "no \"counters\" object in the JSON snapshot")
    (* default backend: candidate verifications run on the certified
       float OPF *)
    [ "pool_smoke.hammer"; "attack.loop.candidates"; "opf.float_opf.solves" ];
  Printf.printf "pool-smoke: sweep examined %d candidates (%d attacks), \
                 counters and histograms exact under parallelism\n"
    !examined !found;
  print_endline "pool-smoke: OK"
