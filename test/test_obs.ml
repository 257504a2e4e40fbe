(* Tests for the observability layer: counter/histogram semantics, snapshot
   diffing, the JSON emitter/parser, and end-to-end solver statistics. *)

module J = Obs.Json

let counter_tests =
  [
    Alcotest.test_case "incr/add accumulate" `Quick (fun () ->
        let c = Obs.Counter.make "test.obs.counter_a" in
        let before = Obs.Counter.get c in
        Obs.Counter.incr c;
        Obs.Counter.add c 41;
        Alcotest.(check int) "delta 42" (before + 42) (Obs.Counter.get c));
    Alcotest.test_case "make is create-or-get" `Quick (fun () ->
        let c1 = Obs.Counter.make "test.obs.counter_shared" in
        let c2 = Obs.Counter.make "test.obs.counter_shared" in
        Obs.Counter.incr c1;
        let v = Obs.Counter.get c2 in
        Obs.Counter.incr c2;
        Alcotest.(check int) "shared state" (v + 1) (Obs.Counter.get c1));
    Alcotest.test_case "counters live regardless of enabled" `Quick (fun () ->
        let c = Obs.Counter.make "test.obs.counter_gate" in
        let was = Obs.enabled () in
        Obs.set_enabled false;
        let before = Obs.Counter.get c in
        Obs.Counter.incr c;
        Obs.set_enabled was;
        Alcotest.(check int) "counted while disabled" (before + 1)
          (Obs.Counter.get c));
  ]

let histogram_tests =
  [
    Alcotest.test_case "bucket boundaries are inclusive powers of two" `Quick
      (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_bounds" in
        (* 1.0 and 0.75 share the le=1 bucket; 1.5 and 2.0 the le=2 bucket;
           0 lands in the first bucket; a huge value in the overflow *)
        List.iter (Obs.Histogram.observe h) [ 1.0; 0.75; 1.5; 2.0; 0.0; 1e19 ];
        let e = Obs.Histogram.read h in
        let bucket le =
          match
            List.find_opt (fun (b, _) -> b = le) e.Obs.h_buckets
          with
          | Some (_, n) -> n
          | None -> 0
        in
        Alcotest.(check int) "le=1 holds 1.0 and 0.75" 2 (bucket 1.0);
        Alcotest.(check int) "le=2 holds 1.5 and 2.0" 2 (bucket 2.0);
        Alcotest.(check int) "first bucket holds 0" 1 (bucket (2. ** -20.));
        Alcotest.(check int) "overflow holds 1e19" 1 (bucket Float.infinity);
        Alcotest.(check int) "count is total" 6 e.Obs.h_count);
    Alcotest.test_case "count/sum/min/max are exact" `Quick (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_stats" in
        List.iter (Obs.Histogram.observe h) [ 3.0; 0.5; 12.25 ];
        let e = Obs.Histogram.read h in
        Alcotest.(check int) "count" 3 e.Obs.h_count;
        Alcotest.(check (float 1e-9)) "sum" 15.75 e.Obs.h_sum;
        Alcotest.(check (option (float 1e-9))) "min" (Some 0.5) e.Obs.h_min;
        Alcotest.(check (option (float 1e-9))) "max" (Some 12.25) e.Obs.h_max);
    Alcotest.test_case "observe_int matches observe of the float" `Quick
      (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_int" in
        Obs.Histogram.observe_int h 7;
        Obs.Histogram.observe_int h 8;
        let e = Obs.Histogram.read h in
        Alcotest.(check int) "both in le=8" 2
          (match List.find_opt (fun (b, _) -> b = 8.0) e.Obs.h_buckets with
          | Some (_, n) -> n
          | None -> 0));
    Alcotest.test_case "quantiles are ordered and within [min,max]" `Quick
      (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_quant" in
        for i = 1 to 100 do
          Obs.Histogram.observe_int h i
        done;
        let e = Obs.Histogram.read h in
        let q p =
          match Obs.quantile e p with
          | Some v -> v
          | None -> Alcotest.fail "quantile on nonempty histogram"
        in
        let p50 = q 0.5 and p90 = q 0.9 and p99 = q 0.99 in
        Alcotest.(check bool) "p50 <= p90" true (p50 <= p90);
        Alcotest.(check bool) "p90 <= p99" true (p90 <= p99);
        Alcotest.(check bool) "within range" true (p50 >= 1.0 && p99 <= 100.0);
        Alcotest.(check (option (float 1e-9))) "empty has no quantile" None
          (Obs.quantile
             { Obs.h_count = 0; h_sum = 0.0; h_min = None; h_max = None;
               h_buckets = [] }
             0.5));
    Alcotest.test_case "a mostly-zero histogram has a zero median" `Quick
      (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_zeros" in
        for _ = 1 to 9 do
          Obs.Histogram.observe h 0.0
        done;
        Obs.Histogram.observe h 1.0;
        let e = Obs.Histogram.read h in
        Alcotest.(check (option (float 0.))) "p50 is exactly 0" (Some 0.0)
          (Obs.quantile e 0.5);
        Alcotest.(check (option (float 0.))) "p90 is exactly 0" (Some 0.0)
          (Obs.quantile e 0.9);
        Alcotest.(check (option (float 1e-9))) "p100 is the max" (Some 1.0)
          (Obs.quantile e 1.0));
    Alcotest.test_case "time passes the result through" `Quick (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_time_result" in
        let was = Obs.enabled () in
        Obs.set_enabled true;
        let n0 = Obs.Histogram.count h in
        let r = Obs.Histogram.time h (fun () -> 7) in
        Obs.set_enabled was;
        Alcotest.(check int) "result passes through" 7 r;
        Alcotest.(check int) "one observation" (n0 + 1) (Obs.Histogram.count h));
    Alcotest.test_case "time records on exception" `Quick (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_time_exn" in
        let was = Obs.enabled () in
        Obs.set_enabled true;
        let n0 = Obs.Histogram.count h in
        (try Obs.Histogram.time h (fun () -> failwith "boom")
         with Failure _ -> ());
        Obs.set_enabled was;
        Alcotest.(check int) "observed despite raise" (n0 + 1)
          (Obs.Histogram.count h));
    Alcotest.test_case "time is transparent when disabled" `Quick (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_time_off" in
        let was = Obs.enabled () in
        Obs.set_enabled false;
        let n0 = Obs.Histogram.count h and s0 = Obs.Histogram.sum h in
        let r = Obs.Histogram.time h (fun () -> "x") in
        Obs.set_enabled was;
        Alcotest.(check string) "result passes through" "x" r;
        Alcotest.(check int) "not observed" n0 (Obs.Histogram.count h);
        Alcotest.(check (float 0.)) "sum unchanged" s0 (Obs.Histogram.sum h));
    Alcotest.test_case "time is gated on enabled" `Quick (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_time_gate" in
        let was = Obs.enabled () in
        Obs.set_enabled false;
        let n0 = Obs.Histogram.count h in
        ignore (Obs.Histogram.time h (fun () -> 1));
        Alcotest.(check int) "not observed while disarmed" n0
          (Obs.Histogram.count h);
        Obs.set_enabled true;
        ignore (Obs.Histogram.time h (fun () -> 1));
        Obs.set_enabled was;
        Alcotest.(check int) "observed while armed" (n0 + 1)
          (Obs.Histogram.count h));
    Alcotest.test_case "snapshot JSON carries histograms and parses back"
      `Quick (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_json" in
        Obs.Histogram.observe h 2.5;
        let s = J.to_string (Obs.json_of_snapshot (Obs.snapshot ())) in
        match J.of_string s with
        | Error e -> Alcotest.failf "snapshot JSON does not parse: %s" e
        | Ok j -> (
          match J.member "histograms" j with
          | Some (J.Obj fields) ->
            Alcotest.(check bool) "our histogram present" true
              (List.mem_assoc "test.obs.hist_json" fields)
          | _ -> Alcotest.fail "no histograms object"));
    Alcotest.test_case "prometheus exposition: cumulative buckets, +Inf = count"
      `Quick (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_prom" in
        List.iter (Obs.Histogram.observe h) [ 0.5; 1.0; 4.0 ];
        let buf = Buffer.create 64 in
        Obs.Prometheus.histogram buf ~name:"tg_test_hist"
          (Obs.Histogram.read h);
        let text = Buffer.contents buf in
        let contains needle =
          let n = String.length needle and m = String.length text in
          let rec go i = i + n <= m && (String.sub text i n = needle || go (i + 1)) in
          go 0
        in
        Alcotest.(check bool) "TYPE line" true
          (contains "# TYPE tg_test_hist histogram");
        Alcotest.(check bool) "+Inf bucket equals count" true
          (contains "tg_test_hist_bucket{le=\"+Inf\"} 3");
        Alcotest.(check bool) "count sample" true (contains "tg_test_hist_count 3"));
  ]

let trace_tests =
  [
    Alcotest.test_case "spans balance and export parses back" `Quick (fun () ->
        Obs.Trace.clear ();
        Obs.Trace.set_enabled true;
        Obs.Trace.with_span "outer" (fun () ->
            Obs.Trace.with_span ~args:[ ("k", "v") ] "inner" (fun () ->
                Obs.Trace.instant "marker");
            Obs.Trace.complete ~ts:(Obs.Clock.now ()) ~dur:0.001 "xspan");
        Obs.Trace.set_enabled false;
        let s = J.to_string (Obs.Trace.export_json ()) in
        match J.of_string s with
        | Error e -> Alcotest.failf "trace JSON does not parse: %s" e
        | Ok j -> (
          match J.member "traceEvents" j with
          | Some (J.List evs) ->
            let phases tid' =
              List.filter_map
                (fun ev ->
                  match (J.member "ph" ev, J.member "tid" ev) with
                  | Some (J.String ph), Some (J.Int tid) when tid = tid' ->
                    Some ph
                  | _ -> None)
                evs
            in
            let tids =
              List.sort_uniq compare
                (List.filter_map
                   (fun ev ->
                     match J.member "tid" ev with
                     | Some (J.Int t) -> Some t
                     | _ -> None)
                   evs)
            in
            Alcotest.(check bool) "some events" true (evs <> []);
            List.iter
              (fun tid ->
                let ps = phases tid in
                Alcotest.(check int)
                  (Printf.sprintf "balanced B/E on tid %d" tid)
                  (List.length (List.filter (( = ) "B") ps))
                  (List.length (List.filter (( = ) "E") ps)))
              tids
          | _ -> Alcotest.fail "no traceEvents"));
    Alcotest.test_case "unclosed spans are closed by export" `Quick (fun () ->
        Obs.Trace.clear ();
        Obs.Trace.set_enabled true;
        Obs.Trace.begin_ "dangling";
        Obs.Trace.set_enabled false;
        (match Obs.Trace.export_json () with
        | J.Obj _ as j -> (
          match J.member "traceEvents" j with
          | Some (J.List evs) ->
            let count ph' =
              List.length
                (List.filter
                   (fun ev -> J.member "ph" ev = Some (J.String ph'))
                   evs)
            in
            Alcotest.(check int) "one B" 1 (count "B");
            Alcotest.(check int) "one synthetic E" 1 (count "E")
          | _ -> Alcotest.fail "no traceEvents")
        | _ -> Alcotest.fail "export not an object");
        Obs.Trace.clear ());
    Alcotest.test_case "disabled recording is a no-op" `Quick (fun () ->
        Obs.Trace.clear ();
        Obs.Trace.set_enabled false;
        Obs.Trace.with_span "ghost" (fun () -> ());
        match J.member "traceEvents" (Obs.Trace.export_json ()) with
        | Some (J.List evs) -> Alcotest.(check int) "no events" 0 (List.length evs)
        | _ -> Alcotest.fail "no traceEvents");
  ]

let snapshot_tests =
  [
    Alcotest.test_case "diff isolates the delta" `Quick (fun () ->
        let c = Obs.Counter.make "test.obs.snap_c" in
        let before = Obs.snapshot () in
        Obs.Counter.add c 5;
        let d = Obs.diff ~before ~after:(Obs.snapshot ()) in
        Alcotest.(check (option int)) "delta of 5" (Some 5)
          (List.assoc_opt "test.obs.snap_c" d.Obs.counters);
        Alcotest.(check bool) "untouched counters dropped" true
          (List.for_all (fun (_, v) -> v <> 0) d.Obs.counters));
    Alcotest.test_case "json_of_snapshot parses back" `Quick (fun () ->
        let c = Obs.Counter.make "test.obs.snap_json" in
        Obs.Counter.incr c;
        let snap = Obs.snapshot () in
        let s = J.to_string (Obs.json_of_snapshot snap) in
        match J.of_string s with
        | Error e -> Alcotest.failf "emitted JSON does not parse: %s" e
        | Ok j -> (
          match J.member "counters" j with
          | Some (J.Obj fields) ->
            Alcotest.(check bool) "our counter is present" true
              (List.mem_assoc "test.obs.snap_json" fields)
          | _ -> Alcotest.fail "no counters object"));
    Alcotest.test_case "diff clamps regressions and marks them" `Quick
      (fun () ->
        (* a reset between the snapshots must not surface as a negative
           delta; the window is flagged via obs.diff.regressed instead *)
        let before =
          {
            Obs.counters = [ ("test.obs.regressing", 10) ];
            histograms = [];
          }
        in
        let after =
          {
            Obs.counters = [ ("test.obs.regressing", 3) ];
            histograms = [];
          }
        in
        let d = Obs.diff ~before ~after in
        Alcotest.(check (option int)) "no negative delta" None
          (List.assoc_opt "test.obs.regressing" d.Obs.counters);
        Alcotest.(check (option int)) "regression marker" (Some 1)
          (List.assoc_opt "obs.diff.regressed" d.Obs.counters));
    Alcotest.test_case "diff subtracts histograms per bucket" `Quick (fun () ->
        let h = Obs.Histogram.make "test.obs.hist_diff" in
        Obs.Histogram.observe h 1.0;
        let before = Obs.snapshot () in
        Obs.Histogram.observe h 1.0;
        Obs.Histogram.observe h 3.0;
        let d = Obs.diff ~before ~after:(Obs.snapshot ()) in
        match List.assoc_opt "test.obs.hist_diff" d.Obs.histograms with
        | None -> Alcotest.fail "histogram delta missing"
        | Some e ->
          Alcotest.(check int) "two new observations" 2 e.Obs.h_count;
          Alcotest.(check int) "one new in le=1" 1
            (match List.find_opt (fun (b, _) -> b = 1.0) e.Obs.h_buckets with
            | Some (_, n) -> n
            | None -> 0));
  ]

let json_tests =
  [
    Alcotest.test_case "escaping round-trips" `Quick (fun () ->
        let v =
          J.Obj
            [
              ("plain", J.String "hello");
              ("quotes", J.String "a\"b\\c");
              ("control", J.String "line1\nline2\ttab");
              ("unicode-ish", J.String "\xc3\xa9");
            ]
        in
        match J.of_string (J.to_string v) with
        | Ok v' -> Alcotest.(check bool) "equal" true (v = v')
        | Error e -> Alcotest.failf "parse: %s" e);
    Alcotest.test_case "numbers round-trip" `Quick (fun () ->
        let v =
          J.List
            [ J.Int 0; J.Int (-42); J.Float 0.1; J.Float 1e-3; J.Float (-2.5) ]
        in
        match J.of_string (J.to_string v) with
        | Ok v' -> Alcotest.(check bool) "equal" true (v = v')
        | Error e -> Alcotest.failf "parse: %s" e);
    Alcotest.test_case "structures parse" `Quick (fun () ->
        match J.of_string {| {"a": [1, 2.5, null, true], "b": {"c": "d"}} |} with
        | Ok
            (J.Obj
               [
                 ("a", J.List [ J.Int 1; J.Float 2.5; J.Null; J.Bool true ]);
                 ("b", J.Obj [ ("c", J.String "d") ]);
               ]) ->
          ()
        | Ok _ -> Alcotest.fail "parsed to the wrong tree"
        | Error e -> Alcotest.failf "parse: %s" e);
    Alcotest.test_case "malformed input rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match J.of_string s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          [ ""; "{"; "[1,]"; "{\"a\" 1}"; "tru"; "\"unterminated"; "1 2" ]);
    Alcotest.test_case "non-finite floats emit as null" `Quick (fun () ->
        (* %.17g would print nan/inf, which no JSON parser accepts *)
        List.iter
          (fun f ->
            Alcotest.(check string)
              (Printf.sprintf "%h is null" f)
              "null"
              (J.to_string (J.Float f)))
          [ Float.nan; Float.infinity; Float.neg_infinity ];
        (* and the containing document still parses back *)
        let s = J.to_string (J.Obj [ ("v", J.Float Float.nan) ]) in
        match J.of_string s with
        | Ok j -> Alcotest.(check bool) "null member" true
                    (J.member "v" j = Some J.Null)
        | Error e -> Alcotest.failf "parse: %s" e);
    Alcotest.test_case "bare nan/inf tokens are rejected" `Quick (fun () ->
        List.iter
          (fun s ->
            match J.of_string s with
            | Ok _ -> Alcotest.failf "accepted %S" s
            | Error _ -> ())
          [ "nan"; "inf"; "-inf"; "Infinity"; "NaN"; "{\"a\": nan}" ]);
  ]

(* a small real solve must move the SAT/simplex counters *)
let solver_stats_tests =
  [
    Alcotest.test_case "stats nonzero after a solve" `Quick (fun () ->
        let module F = Smt.Form in
        let module L = Smt.Linexp in
        let module Q = Numeric.Rat in
        let s = Smt.Solver.create () in
        let x = Smt.Solver.fresh_real ~name:"x" s in
        let y = Smt.Solver.fresh_real ~name:"y" s in
        let p = Smt.Solver.fresh_bool ~name:"p" s in
        Smt.Solver.assert_form s
          (F.or_
             [
               F.and_ [ F.bvar p; F.ge (L.var x) (L.const Q.one) ];
               F.and_ [ F.not_ (F.bvar p); F.le (L.var x) (L.const Q.zero) ];
             ]);
        Smt.Solver.assert_form s (F.eq (L.var y) (L.add (L.var x) (L.const Q.one)));
        Smt.Solver.assert_form s (F.ge (L.var y) (L.const (Q.of_int 2)));
        (match Smt.Solver.check s with
        | `Sat -> ()
        | `Unsat -> Alcotest.fail "expected sat");
        let st = Smt.Solver.stats s in
        Alcotest.(check bool) "propagations > 0" true
          (st.Smt.Solver.propagations > 0);
        Alcotest.(check bool) "bound asserts > 0" true
          (st.Smt.Solver.bound_asserts > 0);
        Alcotest.(check bool) "tseitin clauses > 0" true
          (st.Smt.Solver.tseitin_clauses > 0);
        let named = Smt.Solver.named_model s in
        Alcotest.(check (list string)) "named model keys" [ "p"; "x"; "y" ]
          (List.map fst named);
        (* the JSON form of the stats parses back *)
        match J.of_string (J.to_string (Smt.Solver.json_of_stats st)) with
        | Ok _ -> ()
        | Error e -> Alcotest.failf "stats JSON: %s" e);
  ]

let () =
  Alcotest.run "obs"
    [
      ("counter", counter_tests);
      ("histogram", histogram_tests);
      ("trace", trace_tests);
      ("snapshot", snapshot_tests);
      ("json", json_tests);
      ("solver-stats", solver_stats_tests);
    ]
