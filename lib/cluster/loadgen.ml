(* Open-loop load generation against a scenario service or fleet.

   Open-loop means arrivals are scheduled on a fixed clock — arrival k
   fires at [t0 + k/rate] no matter how the previous ones fared — so a
   slow server faces a growing backlog instead of the generator
   politely slowing down with it (the closed-loop mistake that hides
   queueing collapse).  N client domains share the schedule through one
   atomic arrival counter; each owns its own connection, draws its
   scenario from a warm/cold mix, submits (honouring [retry_after]
   rejections), and awaits the answer.  A detached sampler domain
   scrapes the [metrics] verb for queue depth over time, and the report
   is the [Obs.diff] window of the run plus per-shard balance from a
   final [stats] call. *)

module J = Obs.Json
module P = Serve.Protocol

type config = {
  endpoint : Serve.Transport.endpoint;
  rate : float;  (* target arrivals per second *)
  duration : float;  (* seconds of offered load *)
  clients : int;  (* concurrent client domains *)
  warm_pct : int;  (* share of arrivals drawn from the warm set, 0..100 *)
  warm : P.submit list;  (* repeated scenarios (cache-hit path) *)
  cold : P.submit list;  (* distinct scenarios (solver path) *)
  sample_every : float;  (* metrics scrape period; <= 0 disables *)
  await_timeout : float;  (* per-answer deadline, seconds *)
  trace : bool;  (* mint a fresh trace context per submission *)
}

let default_config ~endpoint ~warm ~cold =
  {
    endpoint;
    rate = 20.;
    duration = 5.;
    clients = 4;
    warm_pct = 80;
    warm;
    cold;
    sample_every = 0.25;
    await_timeout = 60.;
    trace = true;
  }

(* the loadgen series land in the ordinary registry, so the run report
   is just the Obs.diff window over them (plus the client backoff
   histogram the awaits feed) *)
let h_submit = Obs.Histogram.make "loadgen.submit.seconds"
let h_e2e = Obs.Histogram.make "loadgen.e2e.seconds"
let h_sample = Obs.Histogram.make "loadgen.sample.seconds"
let c_offered = Obs.Counter.make "loadgen.offered"
let c_accepted = Obs.Counter.make "loadgen.accepted"
let c_completed = Obs.Counter.make "loadgen.completed"
let c_cached = Obs.Counter.make "loadgen.cached"
let c_failed = Obs.Counter.make "loadgen.failed"
let c_errors = Obs.Counter.make "loadgen.errors"
let c_retries = Obs.Counter.make "loadgen.retries"
let c_lost = Obs.Counter.make "loadgen.lost"

type sample = { at : float; depth : int }

type report = {
  offered : int;
  accepted : int;
  completed : int;
  cached : int;
  failed : int;  (* terminal but not done: failed/timeout/cancelled *)
  errors : int;  (* transport failures and non-retryable rejections *)
  retries : int;  (* retry_after rounds honoured *)
  lost : int;  (* accepted but no terminal answer within the deadline *)
  wall : float;
  achieved_rate : float;  (* accepted submissions per wall second *)
  latency : (string * Obs.hist_entry) list;
      (* the window's loadgen.*.seconds and client.await.backoff.seconds *)
  samples : sample list;  (* queue depth over time, oldest first *)
  per_shard : (string * int) list;  (* jobs submitted per shard *)
  window : Obs.snapshot;  (* the full Obs.diff over the run *)
}

(* ---- scenario mix ---- *)

(* deterministic warm/cold interleaving: arrival k is warm iff its
   low-discrepancy residue falls under warm_pct, so any window of the
   schedule carries the configured mix *)
let pick cfg k =
  let warm_turn =
    cfg.warm <> [] && (cfg.cold = [] || (k * 61) mod 100 < cfg.warm_pct)
  in
  if warm_turn then List.nth cfg.warm (k mod List.length cfg.warm)
  else List.nth cfg.cold (k mod List.length cfg.cold)

(* ---- metrics scraping ---- *)

(* total queue depth in one Prometheus exposition: the plain gauge of a
   single server, or the sum of the per-shard relabeled gauges of a
   coordinator scrape *)
let queue_depth_of_metrics text =
  List.fold_left
    (fun acc line ->
      if String.starts_with ~prefix:"topoguard_queue_depth" line then
        match String.rindex_opt line ' ' with
        | Some sp -> (
          let v = String.sub line (sp + 1) (String.length line - sp - 1) in
          match float_of_string_opt v with
          | Some f -> acc + int_of_float f
          | None -> acc)
        | None -> acc
      else acc)
    0
    (String.split_on_char '\n' text)

(* per-shard submitted-jobs balance from a stats response: the
   coordinator's per-shard sections when present, the server's own jobs
   object otherwise *)
let per_shard_of_stats resp =
  let submitted st =
    match J.member "jobs" st with
    | Some jobs -> (
      match J.member "submitted" jobs with Some (J.Int n) -> Some n | _ -> None)
    | None -> None
  in
  match J.member "shards" resp with
  | Some (J.Obj shards) ->
    List.filter_map
      (fun (name, st) -> Option.map (fun n -> (name, n)) (submitted st))
      shards
  | _ -> (
    match submitted resp with Some n -> [ ("self", n) ] | None -> [])

(* ---- the drive loop ---- *)

(* submit, honouring queue-full rejections until [deadline] *)
let rec submit_once conn s ~trace ~deadline =
  let t0 = Unix.gettimeofday () in
  match Serve.Client.submit ?trace conn s with
  | Error e -> `Transport e
  | Ok resp -> (
    Obs.Histogram.observe h_submit (Unix.gettimeofday () -. t0);
    match J.member "ok" resp with
    | Some (J.Bool true) -> `Accepted resp
    | _ -> (
      match Serve.Client.retry_after_of resp with
      | Some after when Unix.gettimeofday () +. after <= deadline ->
        Obs.Counter.incr c_retries;
        Unix.sleepf after;
        submit_once conn s ~trace ~deadline
      | _ -> `Rejected))

let worker cfg ~t0 ~total ~next =
  match Serve.Client.connect_endpoint cfg.endpoint with
  | Error _ ->
    (* every arrival this worker would have driven still counts against
       the offered load; without a connection they are all errors *)
    let rec drain () =
      if Atomic.fetch_and_add next 1 < total then begin
        Obs.Counter.incr c_offered;
        Obs.Counter.incr c_errors;
        drain ()
      end
    in
    drain ()
  | Ok conn ->
    let conn = ref conn in
    let rec loop () =
      let k = Atomic.fetch_and_add next 1 in
      if k < total then begin
        let target = t0 +. (float_of_int k /. cfg.rate) in
        let now = Unix.gettimeofday () in
        if target > now then Unix.sleepf (target -. now);
        Obs.Counter.incr c_offered;
        let s = pick cfg k in
        let trace =
          if cfg.trace then
            Some (Obs.Trace.new_trace_id (), Obs.Trace.new_span_id ())
          else None
        in
        let started = Unix.gettimeofday () in
        (match
           submit_once !conn s ~trace ~deadline:(started +. cfg.await_timeout)
         with
        | `Transport _ -> (
          Obs.Counter.incr c_errors;
          (* one reconnect — a restarted server costs one arrival, a
             dead one fails the rest fast instead of hanging the run *)
          match Serve.Client.connect_endpoint cfg.endpoint with
          | Ok c ->
            Serve.Client.close !conn;
            conn := c
          | Error _ -> ())
        | `Rejected -> Obs.Counter.incr c_errors
        | `Accepted resp -> (
          Obs.Counter.incr c_accepted;
          let cached =
            match J.member "cached" resp with
            | Some (J.Bool true) -> true
            | _ -> false
          in
          if cached then begin
            Obs.Counter.incr c_cached;
            Obs.Counter.incr c_completed;
            Obs.Histogram.observe h_e2e (Unix.gettimeofday () -. started)
          end
          else
            match J.member "id" resp with
            | Some (J.Int id) -> (
              match
                Serve.Client.await !conn ~id ~timeout:cfg.await_timeout ()
              with
              | Ok ("done", _) ->
                Obs.Counter.incr c_completed;
                Obs.Histogram.observe h_e2e (Unix.gettimeofday () -. started)
              | Ok (_terminal, _) -> Obs.Counter.incr c_failed
              | Error _ ->
                (* the server accepted the job but the answer never
                   came — the one count a load gate must hold at zero *)
                Obs.Counter.incr c_lost)
            | _ -> Obs.Counter.incr c_errors));
        loop ()
      end
    in
    loop ();
    Serve.Client.close !conn

let sampler cfg ~t0 ~stop =
  if cfg.sample_every <= 0. then []
  else
    match Serve.Client.connect_endpoint cfg.endpoint with
    | Error _ -> []
    | Ok c ->
      let acc = ref [] in
      while not (Atomic.get stop) do
        let s0 = Unix.gettimeofday () in
        (match Serve.Client.request c P.Metrics with
        | Ok resp -> (
          Obs.Histogram.observe h_sample (Unix.gettimeofday () -. s0);
          match J.member "metrics" resp with
          | Some (J.String text) ->
            acc :=
              { at = s0 -. t0; depth = queue_depth_of_metrics text } :: !acc
          | _ -> ())
        | Error _ -> ());
        (* sleep in short slices so the stop flag is honoured promptly *)
        let until = Unix.gettimeofday () +. cfg.sample_every in
        while (not (Atomic.get stop)) && Unix.gettimeofday () < until do
          Unix.sleepf 0.02
        done
      done;
      Serve.Client.close c;
      List.rev !acc

let counter_of snap name =
  Option.value ~default:0 (List.assoc_opt name snap.Obs.counters)

let run cfg =
  if cfg.rate <= 0. then Error "rate must be positive"
  else if cfg.duration <= 0. then Error "duration must be positive"
  else if cfg.clients < 1 then Error "at least one client"
  else if cfg.warm = [] && cfg.cold = [] then Error "no scenarios to submit"
  else begin
    Obs.Clock.set Unix.gettimeofday;
    Obs.set_enabled true;
    let total = max 1 (int_of_float ((cfg.rate *. cfg.duration) +. 0.5)) in
    let before = Obs.snapshot () in
    let t0 = Unix.gettimeofday () in
    let next = Atomic.make 0 in
    let stop = Atomic.make false in
    let sampler_fut = Pool.detached (fun () -> sampler cfg ~t0 ~stop) in
    Pool.with_pool ~jobs:cfg.clients (fun pool ->
        let futs =
          List.init cfg.clients (fun _ ->
              Pool.async pool (fun () -> worker cfg ~t0 ~total ~next))
        in
        List.iter Pool.Future.await futs);
    let wall = Unix.gettimeofday () -. t0 in
    Atomic.set stop true;
    let samples = Pool.Future.await sampler_fut in
    let per_shard =
      match Serve.Client.connect_endpoint cfg.endpoint with
      | Error _ -> []
      | Ok c ->
        let r =
          match Serve.Client.request c P.Stats with
          | Ok resp -> per_shard_of_stats resp
          | Error _ -> []
        in
        Serve.Client.close c;
        r
    in
    let window = Obs.diff ~before ~after:(Obs.snapshot ()) in
    let accepted = counter_of window "loadgen.accepted" in
    Ok
      {
        offered = counter_of window "loadgen.offered";
        accepted;
        completed = counter_of window "loadgen.completed";
        cached = counter_of window "loadgen.cached";
        failed = counter_of window "loadgen.failed";
        errors = counter_of window "loadgen.errors";
        retries = counter_of window "loadgen.retries";
        lost = counter_of window "loadgen.lost";
        wall;
        achieved_rate =
          (if wall > 0. then float_of_int accepted /. wall else 0.);
        latency =
          List.filter
            (fun (name, _) ->
              String.starts_with ~prefix:"loadgen." name
              || name = "client.await.backoff.seconds")
            window.Obs.histograms;
        samples;
        per_shard;
        window;
      }
  end

(* ---- the JSON report ---- *)

let json_of_report r =
  let q h p =
    match Obs.quantile h p with Some v -> J.Float v | None -> J.Null
  in
  J.Obj
    [
      ("offered", J.Int r.offered);
      ("accepted", J.Int r.accepted);
      ("completed", J.Int r.completed);
      ("cached", J.Int r.cached);
      ("failed", J.Int r.failed);
      ("errors", J.Int r.errors);
      ("retries", J.Int r.retries);
      ("lost", J.Int r.lost);
      ("wall_s", J.Float r.wall);
      ("achieved_rate", J.Float r.achieved_rate);
      ( "latency",
        J.Obj
          (List.map
             (fun (name, h) ->
               ( name,
                 J.Obj
                   [
                     ("count", J.Int h.Obs.h_count);
                     ("sum_s", J.Float h.Obs.h_sum);
                     ("p50_s", q h 0.5);
                     ("p90_s", q h 0.9);
                     ("p99_s", q h 0.99);
                   ] ))
             r.latency) );
      ( "queue_depth",
        J.List
          (List.map
             (fun s ->
               J.Obj [ ("at_s", J.Float s.at); ("depth", J.Int s.depth) ])
             r.samples) );
      ( "per_shard",
        J.Obj (List.map (fun (name, n) -> (name, J.Int n)) r.per_shard) );
      ("window", Obs.json_of_snapshot r.window);
    ]
