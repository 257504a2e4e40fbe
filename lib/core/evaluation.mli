(** Scalability-evaluation harness (paper Section IV).

    Generates randomized attack scenarios per test system (varying the
    attacker's resource limits and accessibility, as the paper does with
    "three arbitrary cases" per bus size), runs the impact analysis /
    individual models, and records wall-clock time and allocation. *)

type measurement = {
  label : string;
  system_size : int;  (** number of buses *)
  seconds : float;
  allocated_mb : float;  (** bytes allocated during the run / 1e6 *)
  result : string;  (** "sat", "unsat", "attack", "no-attack", ... *)
  counters : (string * int) list;
      (** observability counters incremented during the run (name, delta);
          empty when the run never started *)
}

val randomize_scenario : seed:int -> Grid.Spec.t -> Grid.Spec.t
(** Perturb attacker resources (measurement/bus budgets) and measurement
    accessibility deterministically from the seed. *)

val timed : label:string -> size:int -> (unit -> string) -> measurement

val impact_run :
  mode:Attack.Encoder.mode ->
  ?backend:Impact.opf_backend ->
  ?increase_pct:Numeric.Rat.t ->
  ?max_candidates:int ->
  seed:int ->
  Grid.Spec.t ->
  measurement
(** One data point of Fig. 4(a)/(b): full impact verification. *)

val attack_model_run :
  mode:Attack.Encoder.mode -> seed:int -> Grid.Spec.t -> measurement
(** One data point of Fig. 5(b): the topology-attack model alone. *)

val opf_model_run :
  tightness:[ `Loose | `Medium | `Tight ] -> Grid.Spec.t -> measurement
(** One data point of Fig. 5(a): the SMT OPF model alone, with the budget
    set at a multiple of the optimum depending on [tightness]. *)

val unsat_impact_run :
  mode:Attack.Encoder.mode -> seed:int -> Grid.Spec.t -> measurement
(** One data point of Fig. 4(c): an unattainable target, forcing the
    framework to exhaust the candidate space. *)

val unsat_attack_model_run :
  mode:Attack.Encoder.mode -> seed:int -> Grid.Spec.t -> measurement
(** Fig. 5(c), attack side: a one-substation budget makes the attack model
    unsatisfiable non-trivially. *)

val unsat_opf_model_run : Grid.Spec.t -> measurement
(** Fig. 5(c), OPF side: a budget below the optimum is unsatisfiable. *)

val memory_table_row :
  Grid.Spec.t -> (float * float, string) Result.t
(** Table IV row: (attack-model MB, OPF-model MB) allocated while encoding
    and solving each individual model once. *)
