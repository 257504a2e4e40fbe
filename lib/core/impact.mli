(** The impact-analysis framework of paper Fig. 2 / Section III-A.

    Pipeline: compute the attack-free OPF optimum [T*]; set the threshold
    [T_OPF = T* (1 + I/100)]; repeatedly ask the attack model for a stealthy
    candidate vector; apply it (poisoned topology + shifted loads); verify
    the impact on the operator's OPF — the attack succeeds when no dispatch
    cheaper than the threshold exists (Eq. 37) while the OPF still
    converges for unconstrained budgets (Eq. 38).  Rejected candidates are
    blocked at a 2-decimal-digit discretisation (Section IV-A idea 1) and
    the search continues. *)

type opf_backend =
  | Lp_exact  (** exact LP optimum of the poisoned system (reference) *)
  | Smt_bounded  (** the paper's bounded-cost SMT feasibility query *)
  | Fast_factors  (** shift-factor OPF (Section IV-A idea 2) *)

exception Interrupted
(** Raised from inside {!analyze} / {!analyze_sweep} /
    {!max_achievable_increase} when {!config.interrupt} reports true —
    the cooperative cancellation/timeout mechanism of the scenario
    service.  Never raised when [config.interrupt = None]. *)

type config = {
  mode : Attack.Encoder.mode;
  precision : int;  (** blocking-clause discretisation digits *)
  max_candidates : int;
      (** enumeration budget, honored on both paths: the SMT loop stops
          after this many queries, and the closed-form path verifies at
          most this long a prefix of the ranked single-line candidate
          list *)
  backend : opf_backend;
  max_topology_changes : int option;
      (** cap on simultaneous line exclusions/inclusions; the paper uses 1
          for the 57/118-bus evaluation (Section IV-A) *)
  use_closed_form : bool;
      (** enumerate single-line candidates with {!Attack.Single_line}
          instead of the SMT model (requires [Topology_only] and
          [max_topology_changes = Some 1]); the deterministic counterpart
          of the paper's LODF shortcut *)
  jobs : int;
      (** parallelism of candidate verification on the closed-form path
          (default 1 = sequential).  The verifications run on a
          {!Pool.t}; the outcome — the poisoned cost and the [candidates]
          count included — and every [attack.loop.*] / [audit.*] counter
          are identical to the sequential run, because the lowest-index
          success wins ({!Pool.find_mapi_first}) and both are taken by
          position up to the winner, whatever workers past it had
          started.  The SMT enumeration is inherently sequential (each
          candidate's blocking clause feeds the next query) and ignores
          this field. *)
  interrupt : (unit -> bool) option;
      (** probed between solver iterations and candidate verifications;
          returning [true] aborts the analysis by raising {!Interrupted}.
          The probe may be called from pool worker domains on the
          closed-form path, so it must be domain-safe (read an [Atomic],
          compare against a deadline clock). *)
  store : Store.Cache.t option;
      (** content-addressed store for the analysis' OPF solves, two
          namespaces:
          - [verify:] entries, one per candidate verification.  With an
            exact backend the poisoned optimum is threshold-independent,
            so entries are keyed by a canonical serialisation of the
            poisoned instance (formulation — [angle] for [Lp_exact],
            [ptdf] for [Fast_factors] — each line's electrical parameters
            with its mapped bit, generators, per-bus shifted loads — see
            {!Store.Canonical.verify_key}) and are shared between
            scenarios that differ only in the impact target [I] — and,
            through the store's journal, across process restarts.  The
            key names the physical topology, not a row-indexed
            bitstring, so row-permuted copies of a [.grid] file share
            entries soundly.  The [Smt_bounded] backend bypasses them
            (its verdict depends on the threshold).
          - [base:] entries, the attack-free OPF [T*] of a grid, solved
            once per store and formulation: [base:angle:...] for the
            angle formulation ([Lp_exact], [Smt_bounded]) and
            [base:ptdf:...] for the shift-factor one ([Fast_factors], and
            {!base_state}'s OPF operating point).  The key is the
            {!Store.Canonical.verify_key} of the true topology and the
            existing loads plus {!Store.Canonical.ordering}, since the
            stored dispatch is indexed by generator row; the value is
            infeasible, unbounded, or the exact cost and dispatch.
          A value that fails to decode is replaced by a fresh solve.
          [None] (the default) solves everything afresh. *)
  audit : bool;
      (** solver-free static pre-pass on the closed-form path (default
          true): before any verification, {!Audit.classify} prunes
          candidates that provably cannot succeed — bridge exclusions
          (statically islanding, [Fast_factors] only) and candidates
          whose poisoned optimum is provably at or below the base cost
          while the threshold is strictly above it; a threshold above
          the exact dispatch-cost ceiling prunes everything.  The
          outcome, winning vector and poisoned cost are identical with
          the audit on or off — only the number of OPF solves drops
          (counters [audit.pruned], [audit.pruned.islanding],
          [audit.pruned.interval], [audit.pruned.ceiling]; bumped per
          solve actually avoided, up to where the scan stopped).  Pruned
          candidates still count as examined.  The SMT enumeration path
          is model-driven and ignores this field. *)
  audit_cross_check : bool;
      (** solve every statically pruned candidate anyway (exact
          backends only) and assert the prune verdict against the
          solver's: a pruned candidate that verifies as a success bumps
          [audit.prune.unsound].  Costs what the un-audited run costs;
          meant for CI parity gates, default false. *)
}

val default_config : config

type success = {
  vector : Attack.Vector.t;
  base_cost : Numeric.Rat.t;  (** attack-free OPF optimum [T*] *)
  threshold : Numeric.Rat.t;  (** [T_OPF] *)
  poisoned_cost : Numeric.Rat.t option;
      (** exact poisoned optimum (present with the LP backends) *)
  candidates : int;
      (** attack vectors examined, the winner included — on the
          closed-form path its position in the ranked list, counting
          from 1, audited-away candidates included *)
}

type outcome =
  | Attack_found of success
  | No_attack of { candidates : int }
  | Base_infeasible of string

val base_state :
  ?store:Store.Cache.t ->
  [ `Opf | `Proportional | `Case_study ] ->
  Grid.Network.t ->
  (Attack.Base_state.t, string) result
(** The observed operating point an analysis starts from: [`Opf] the
    attack-free shift-factor OPF optimum, [`Proportional]
    {!Attack.Base_state.proportional}, and [`Case_study] the calibrated
    case-study dispatch on the 5-bus grid and the OPF optimum elsewhere.
    With [store] the OPF optimum comes from the same [base:ptdf:] entry
    a [Fast_factors] analysis of the grid reads (see {!config.store}). *)

val analyze :
  ?config:config ->
  scenario:Grid.Spec.t ->
  base:Attack.Base_state.t ->
  unit ->
  outcome
(** {!analyze_sweep} on the single target [scenario.min_increase_pct]. *)

val analyze_sweep :
  ?config:config ->
  scenario:Grid.Spec.t ->
  base:Attack.Base_state.t ->
  increases:Numeric.Rat.t list ->
  unit ->
  (Numeric.Rat.t * outcome) list
(** Run {!analyze} against several impact targets [I] (percent values
    overriding [scenario.min_increase_pct]), sharing every
    threshold-independent computation instead of restarting from scratch
    per target:

    - the attack-free OPF (and thus [T*]) is solved once, and each
      distinct target is answered once: a repeated target shares its
      outcome;
    - on the closed-form path the single-line candidates are enumerated
      and audited once, every target's scan honours [jobs], and with an
      exact backend each candidate's poisoned optimum is solved at most
      once and compared against every threshold (reuse is visible as
      [attack.sweep.reused_verifications] and as flat
      [attack.loop.iterations] in [--stats]);
    - on the SMT path one solver and one encoding serve all targets:
      thresholds are processed in ascending order, which keeps
      accumulated blocking clauses sound (a candidate blocked at
      threshold [T] has a poisoned optimum below [T], hence below any
      larger threshold).

    Results are returned in the input order of [increases].  On the
    closed-form path every outcome, [candidates] included, equals
    {!analyze} per target.  On the SMT path a target's search skips the
    candidates that lower targets already blocked, so its [candidates]
    count can be smaller than a fresh {!analyze}'s and the solver may
    come to a different winning vector first; whether an attack exists
    is the same whenever [max_candidates] does not cut the search.  When
    the SMT budget {e is} exhausted the sweep can diverge further from
    fresh per-target runs: the shared solver's accumulated blocking
    clauses change which candidates each target's [max_candidates]
    budget examines (the clauses themselves stay sound — only the
    cut-off point of a truncated search moves). *)

val max_achievable_increase :
  ?config:config ->
  scenario:Grid.Spec.t ->
  base:Attack.Base_state.t ->
  unit ->
  Numeric.Rat.t option
(** Largest percentage increase any stealthy attack can force (the "cannot
    increase the cost more than 8%" bound of Case Study 2): max over
    candidate vectors of the poisoned optimum, expressed as percent above
    [T*].  [None] when no stealthy attack converges. *)
