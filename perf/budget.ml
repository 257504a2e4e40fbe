(* The per-layer time budget of a traced run, reported under one set of
   names on every workload (a layer a workload never reaches reads 0).

   Time is reported as shares of the summed per-answer latency [e2e] of
   the traced window.  Offline, [encode + check + base + verify +
   unattributed] partition an [Impact.analyze] call.  For a fleet the
   partition is the client's view — generator lag, submit round trip,
   await (backoff sleeps and polls) and the unattributed rest — and the
   coordinator, shard and solver shares explain parts of it; they
   overlap with it and with each other. *)

open Report

(* registry names resolved against the process(es) that ran the layer:
   the benchmark's own [Obs] registry offline, the fleet's scraped
   exposition otherwise *)
type source = { counter : string -> float; hist_sum : string -> float }

type client = { lag : float; submit : float; await : float; backoff : float }

let no_client = { lag = 0.; submit = 0.; await = 0.; backoff = 0. }

type t = {
  answers : int;
  e2e : float;
  unattributed : float;
  overhead : float;  (* traced / untraced latency over the same answers, - 1 *)
  solver : Spans.solver;
  replay : float * float * float;
      (* per-candidate topology, LU and PTDF-row seconds, measured from
         outside on the workload's grid *)
  client : client;
  source : source;
  depth_max : int;
}

let metrics b =
  let share x = ratio x b.e2e in
  let per_answer x = ratio x (float_of_int b.answers) in
  let s = b.solver in
  let c = b.source.counter and h = b.source.hist_sum in
  let check = h "lp.certify.seconds" in
  let topo, lu, rows = b.replay in
  let verified = float_of_int s.Spans.verifications in
  let candidates = c "attack.loop.candidates" in
  let frac name v = metric name "fraction" v in
  let count name v = metric name "count" v in
  [
    frac "attack.encode_share" (share s.Spans.encode);
    frac "smt.check_share" (share s.Spans.check);
    frac "opf.base_share" (share s.Spans.base);
    frac "opf.verify_share" (share s.Spans.verify);
    frac "opf.verify.self_share" (share s.Spans.verify_self);
    frac "grid.topology_make_share" (share (topo *. verified));
    frac "linalg.lu_share" (share (lu *. verified));
    frac "opf.ptdf_rows_share" (share (rows *. verified));
    frac "lp.presolve_build_share" (share (Float.max 0. (s.Spans.lp_certify_self -. check)));
    frac "lp.float_simplex_share" (share s.Spans.lp_float);
    frac "lp.certify_check_share" (share check);
    frac "lp.exact_share" (share s.Spans.lp_exact);
    frac "client.lag_share" (share b.client.lag);
    frac "client.submit_share" (share b.client.submit);
    frac "client.await.backoff_share" (share b.client.backoff);
    frac "client.await.poll_share" (share (b.client.await -. b.client.backoff));
    frac "cluster.request_share" (share (h "cluster.request.seconds"));
    frac "cluster.route_share" (share (h "cluster.route.seconds"));
    frac "serve.request_share" (share (h "serve.request.seconds"));
    frac "serve.job.wait_share" (share (h "serve.job.wait_seconds"));
    frac "serve.job.service_share" (share (h "serve.job.service_seconds"));
    frac "unattributed_share" (share b.unattributed);
    frac "trace_overhead_share" b.overhead;
    metric ~count:b.answers "unattributed_s" "s" (per_answer b.unattributed);
    metric ~count:b.answers "traced_latency_mean_s" "s" (per_answer b.e2e);
    count "smt.checks_per_answer" (per_answer (c "smt.solver.checks"));
    count "smt.sat.decisions_per_answer" (per_answer (c "smt.sat.decisions"));
    count "opf.candidates_per_answer" (per_answer candidates);
    count "linalg.lu.factorizations_per_candidate" (ratio (c "linalg.lu.factorizations") candidates);
    count "opf.ptdf.rows_per_candidate" (ratio (c "opf.ptdf.rows_computed") candidates);
    count "lp.certify.fallback_per_answer" (per_answer (c "lp.certify.fallback"));
    frac "audit.pruned_ratio" (ratio (c "audit.pruned") (c "audit.pruned" +. candidates));
    frac "store.hit_ratio" (ratio (c "store.hit") (c "store.hit" +. c "store.miss"));
    count "store.insert_per_answer" (per_answer (c "store.insert"));
    count "serve.queue.depth_max" (float_of_int b.depth_max);
    count "cluster.requests_per_answer" (per_answer (c "cluster.requests"));
  ]

(* Per-candidate cost of the verification's set-up layers, replayed from
   outside on up to 16 single-line candidates of one scenario:
   [Grid.Topology.make], [Opf.Factors.make] (one sparse LU) and a PTDF
   row for every mapped line, as the certified OPF builds them. *)
let replay ~scenario ~base =
  let grid = scenario.Grid.Spec.grid in
  let candidates =
    List.filteri (fun i _ -> i < 16) (Attack.Single_line.all_feasible ~scenario ~base)
  in
  let topo_t = ref 0. and lu_t = ref 0. and rows_t = ref 0. and n = ref 0 in
  List.iter
    (fun (_, _, (vec : Attack.Vector.t)) ->
      let t0 = Unix.gettimeofday () in
      let topo = Grid.Topology.make ~mapped:vec.Attack.Vector.mapped grid in
      let t1 = Unix.gettimeofday () in
      match Opf.Factors.make topo with
      | exception Failure _ -> ()  (* islanding candidate: no factorisation *)
      | factors ->
        let t2 = Unix.gettimeofday () in
        Array.iteri
          (fun line mapped -> if mapped then ignore (Opf.Factors.ptdf_row factors ~line))
          topo.Grid.Topology.mapped;
        let t3 = Unix.gettimeofday () in
        incr n;
        topo_t := !topo_t +. (t1 -. t0);
        lu_t := !lu_t +. (t2 -. t1);
        rows_t := !rows_t +. (t3 -. t2))
    candidates;
  let per x = ratio x (float_of_int !n) in
  (per !topo_t, per !lu_t, per !rows_t)

(* traced / untraced cost of the same leading answers (both windows
   start at answer 0 of one deterministic sequence) *)
let overhead ~untraced ~traced =
  let k = min (List.length untraced) (List.length traced) in
  let prefix l = sum (List.filteri (fun i _ -> i < k) l) in
  if k = 0 then 0. else ratio (prefix traced) (prefix untraced) -. 1.
