(** Shift-factor DC-OPF (paper Section IV-A): PTDF flow rows over the
    generator set-points, the formulation the paper switches to for the
    57- and 118-bus systems, and the only place this LP is built.

    Each float PTDF entry is rounded to a 1e-6 step before it enters the
    LP, so the problem is stated over exact rationals.  {!solve} poses it
    to {!Certify}: a float simplex whose verdict is proved by an exact
    basis check or re-solved exactly.  Every returned cost and dispatch is
    therefore the exact optimum of the rounded LP
    ([docs/certification.md]).  Angles and flows are recovered from a
    float power flow at that dispatch. *)

val solve : ?loads:Numeric.Rat.t array -> Grid.Topology.t -> Dc_opf.outcome
(** The certified shift-factor OPF; [loads] (per bus, default the existing
    loads) replaces the demand.  The only call counted by
    [opf.float_opf.solves]. *)

val solve_exact : Grid.Topology.t -> Dc_opf.outcome
(** The identical LP (existing loads) on the exact simplex alone
    ({!Certify.solve_exact}): the reference tests and [@sparse-smoke]
    compare {!solve} against with [Rat.equal].  Much slower; not counted
    in [opf.float_opf.solves]. *)

val solve_with :
  ?loads:Numeric.Rat.t array ->
  extra:(Factors.t -> (float array -> cap:Numeric.Rat.t -> unit) -> unit) ->
  Grid.Topology.t ->
  Dc_opf.outcome
(** {!solve} with further flow limits: after the base rows,
    [extra factors limit] may call [limit row ~cap] to add
    [|row . (pg - loads)| <= cap] for a per-bus float shift-factor [row],
    rounded and screened exactly like a base row.  Used by
    {!Contingency.sc_opf}; not counted in [opf.float_opf.solves]. *)
