(** DC optimal power flow (paper Section II-D, Eqs. 3-6; the operator's
    model of Section III-E, Eqs. 30-35) over voltage angles and generator
    set-points, stated once as data ({!statement}) and solved exactly as
    a linear program.  {!Smt_opf} asserts the same statement.

    Cost model: piecewise-linear single-segment [C_k(P) = alpha_k +
    beta_k P] (Section III-E).  Line limits are enforced in both
    directions; the slack angle is fixed at zero. *)

type dispatch = {
  cost : Numeric.Rat.t;  (** total generation cost, alphas included *)
  pg : Numeric.Rat.t array;  (** per generator (index into [grid.gens]) *)
  theta : Numeric.Rat.t array;  (** per bus *)
  flows : Numeric.Rat.t array;  (** per line (0 when unmapped) *)
}

type outcome = Dispatch of dispatch | Infeasible | Unbounded

type row = {
  lo : Numeric.Rat.t option;
  hi : Numeric.Rat.t option;
  terms : (int * Numeric.Rat.t) list;  (** (variable, coefficient) *)
}
(** [lo <= terms . x <= hi]; an absent bound leaves that side free. *)

type statement = {
  bounds : (Numeric.Rat.t option * Numeric.Rat.t option) array;
      (** per variable: bus [j]'s angle is variable [j] (the slack's is
          pinned to zero), then one box per generator (Eq. 31) *)
  pg : int array;  (** the set-point variable of each generator *)
  rows : row list;
      (** one two-sided capacity row per mapped line (Eq. 34), then one
          balance equality per bus summing every generator there
          (Eq. 33) *)
  loads : Numeric.Rat.t array;  (** the per-bus demand the rows serve *)
  objective : (int * Numeric.Rat.t) list;  (** Eq. 35: [beta] per generator *)
  constant : Numeric.Rat.t;  (** the sum of the [alpha]s *)
}
(** The angle formulation of one OPF instance. *)

val statement : ?loads:Numeric.Rat.t array -> Grid.Topology.t -> statement
(** [loads] is a per-bus vector; defaults to the grid's existing loads.
    The topology's [mapped] set decides which lines carry power — this is
    how the operator's OPF consumes the (possibly poisoned) topology.
    @raise Invalid_argument when [loads] is not per-bus. *)

val generation_cost :
  Grid.Network.t -> 'v array -> ('v * Numeric.Rat.t) list * Numeric.Rat.t
(** [generation_cost grid pg] is the cost [sum beta_k pg_k + sum alpha_k]
    of per-generator quantities [pg] (solver variables or values), as the
    terms [(pg_k, beta_k)] and the constant. *)

val solve : ?loads:Numeric.Rat.t array -> Grid.Topology.t -> outcome
(** Poses {!statement} to {!Certify} and solves it on the exact simplex
    ({!Certify.solve_exact}). *)

val base_case : Grid.Network.t -> outcome
(** Attack-free OPF: true topology, existing loads. *)
