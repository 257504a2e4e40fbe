(** Optimum-preserving exact LP presolve, run once per solve by
    {!Certify}, the LP front end, before either simplex instance
    ({!Lp.Float} or {!Lp.Exact}).

    The problem is a box [lo <= x <= hi] plus two-sided linear rows
    [rlo <= terms . x <= rhi] ([None] = free side).  {!run} applies, to a
    fixpoint:

    - {b fixed-variable substitution}: a variable with [lo = hi] is folded
      into every row's bounds and removed from its terms;
    - {b empty-row elimination}: a row with no (remaining) terms is
      dropped when satisfied, and is a witness of infeasibility when
      violated;
    - {b singleton-row-to-bound}: a row with one term [c*x] becomes a
      bound on [x] and is dropped;
    - {b duplicate-row merging}: rows whose terms are proportional merge
      their (rescaled) bounds into one row;
    - {b redundant-row elimination}: a row whose implied activity range
      (from the variable box) cannot leave [rlo, rhi] is dropped;
    - {b structural infeasibility}: a crossed variable box ([lo > hi]) or
      a row whose activity range cannot reach its bounds stops the solve
      before simplex.

    Every rule preserves the feasible region exactly, so objective value
    and solve status are unchanged; only the tableau the simplex has to
    pivot over shrinks. *)

type row = {
  terms : (int * Numeric.Rat.t) list;  (** variable id, coefficient *)
  lo : Numeric.Rat.t option;
  hi : Numeric.Rat.t option;
}

type stats = {
  rows_eliminated : int;
  bounds_tightened : int;
  vars_fixed : int;
}

type outcome =
  | Reduced of {
      lo : Numeric.Rat.t option array;
      hi : Numeric.Rat.t option array;
      rows : row list;  (** surviving rows, input order preserved *)
      fixed : (int * Numeric.Rat.t) list;  (** variables pinned by presolve *)
      stats : stats;
    }
  | Infeasible of { reason : string; stats : stats }

val run :
  n_vars:int ->
  lo:Numeric.Rat.t option array ->
  hi:Numeric.Rat.t option array ->
  row list ->
  outcome
(** The input arrays are not mutated; [Reduced] carries tightened
    copies. *)
