(** The power-grid data model: buses, transmission lines, generators, loads
    and the measurement configuration of paper Table I / Tables II-III.

    Conventions (following the paper, 0-based in code):
    - a system with [l] lines and [b] buses has [m = 2l + b] potential
      measurements: index [i < l] is the forward power flow of line [i],
      [l <= i < 2l] the backward flow of line [i - l], and [2l + j] the
      power-consumption measurement of bus [j];
    - a forward-flow measurement resides at the line's from-bus, a backward
      one at its to-bus, an injection measurement at its bus (Eq. 21);
    - quantities are in per unit on a common MVA base; costs in $/h with
      piecewise-linear generation cost [alpha + beta * Pg] (Section III-E). *)

type line = {
  from_bus : int;
  to_bus : int;
  admittance : Numeric.Rat.t;  (** susceptance magnitude [d_i] (1/reactance) *)
  capacity : Numeric.Rat.t;  (** flow limit [P_i^L,max] *)
  known : bool;  (** [g_i]: admittance known to the attacker *)
  in_true_topology : bool;  (** [u_i] *)
  fixed : bool;  (** [v_i]: part of the never-opened core *)
  status_secured : bool;  (** [w_i]: breaker status integrity-protected *)
  status_alterable : bool;  (** attacker can inject this line's status *)
}

type gen = {
  gbus : int;
  pmax : Numeric.Rat.t;
  pmin : Numeric.Rat.t;
  alpha : Numeric.Rat.t;  (** fixed cost coefficient *)
  beta : Numeric.Rat.t;  (** marginal cost coefficient *)
}

type load = {
  lbus : int;
  existing : Numeric.Rat.t;  (** current load [P_j^D] *)
  lmax : Numeric.Rat.t;  (** plausible maximum (Eq. 36) *)
  lmin : Numeric.Rat.t;  (** plausible minimum (Eq. 36) *)
}

type meas = {
  taken : bool;  (** [t_i] *)
  secured : bool;  (** [s_i] *)
  accessible : bool;  (** [r_i] *)
}

type t = {
  n_buses : int;
  lines : line array;
  gens : gen array;
  loads : load array;
  meas : meas array;  (** length [2l + b] *)
}

val n_lines : t -> int
val n_meas : t -> int

val validate : t -> (unit, string) Result.t
(** Structural sanity: bus indices in range, measurement count, positive
    admittances, load bounds ordered, at most one generator and one load
    row per bus. *)

val lines_in : t -> int -> int list
(** Indices of lines whose to-bus is the given bus. *)

val lines_out : t -> int -> int list
val gen_at : t -> int -> gen option
val load_at : t -> int -> load option

val meas_fwd : t -> int -> int
(** Measurement index of the forward flow of a line. *)

val meas_bwd : t -> int -> int
val meas_inj : t -> int -> int

val meas_bus : t -> int -> int
(** The bus where a measurement resides (Eq. 21). *)

val total_load : t -> Numeric.Rat.t

val bus_demand : t -> Numeric.Rat.t array
(** Existing load per bus, summing the load rows at each bus. *)

val bus_generation : t -> Numeric.Rat.t array -> Numeric.Rat.t array
(** Generation per bus of a per-generator dispatch (indexed like
    [gens]), summing the generators at each bus. *)

val true_topology : t -> bool array
(** [u_i] per line. *)

val pp : Format.formatter -> t -> unit
