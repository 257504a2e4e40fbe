(** The paper's OPF model as an SMT feasibility query (Section III-E,
    Eqs. 30-36): "is there a dispatch whose total cost is at most
    [budget]?".  Impact verification (Eq. 37) asks this with
    [budget = T* . I / 100] and succeeds when the answer is unsat.

    The constraints are the rows of {!Dc_opf.statement}, asserted as they
    are; this module adds only the paper's Eq. 30 total (generation equals
    load) and a named cost variable to bound. *)

val feasible :
  ?loads:Numeric.Rat.t array ->
  Grid.Topology.t ->
  budget:Numeric.Rat.t ->
  [ `Sat | `Unsat ]
(** One-shot bounded-cost feasibility (fresh solver). *)

val minimum_cost :
  ?loads:Numeric.Rat.t array ->
  ?tolerance:Numeric.Rat.t ->
  Grid.Topology.t ->
  Numeric.Rat.t option
(** The OPF optimum found purely through the SMT model, by binary search
    on the cost budget (each probe is a fresh bounded-cost query) — how
    the paper's framework would localise the optimum without an LP
    solver.  [tolerance] defaults to 1/100 ($0.01).  [None] when even the
    loosest budget is infeasible. *)
