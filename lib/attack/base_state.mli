(** The true operating point the attacker observes: dispatch, loads, exact
    angles and line flows on the true topology.

    The stealth constraints (Eqs. 13/14) reference the true flows as
    constants, so they are computed exactly (small systems) or from a float
    power flow rounded to 6 decimal digits (large systems) — either way the
    SMT model sees one consistent set of rational constants. *)

type t = {
  grid : Grid.Network.t;
  topo : Grid.Topology.t;  (** true topology *)
  gen : Numeric.Rat.t array;  (** per-bus generation *)
  load : Numeric.Rat.t array;  (** per-bus load *)
  theta : Numeric.Rat.t array;  (** per-bus angle *)
  flows : Numeric.Rat.t array;
      (** per-line flow; for open lines, the hypothetical flow
          [d_i (theta_f - theta_e)] the line would carry if closed
          (needed by inclusion attacks, Eq. 14) *)
}

val of_dispatch :
  ?exact:bool -> Grid.Network.t -> gen:Numeric.Rat.t array -> (t, string) Result.t
(** [exact] defaults to true for systems up to 30 buses. *)

val of_generators :
  Grid.Network.t -> pg:Numeric.Rat.t array -> (t, string) Result.t
(** {!of_dispatch} from a per-generator dispatch ([pg] indexed like
    [grid.gens], as an OPF reports it). *)

val of_opf : Grid.Network.t -> (t, string) Result.t
(** Base state = attack-free OPF optimum (the normal operating premise),
    solved on the shift-factor formulation ({!Opf.Float_opf}). *)

val proportional : Grid.Network.t -> (t, string) Result.t
(** All generators loaded at an equal fraction of capacity. *)
