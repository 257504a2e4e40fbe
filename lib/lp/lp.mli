(** The bounded-variable primal simplex, written once over a number type.

    A problem is a box on each variable plus two-sided rows
    [lo <= terms . x <= hi], one slack per row.  Phase I repairs the
    bound violations of the basic variables (Dutertre–de Moura style
    pivoting), phase II minimises the objective; both run on a dense
    tableau updated in place.  Problems reach the engine through
    {!Certify}, which records them and runs the exact presolve
    ({!Analysis.Presolve}) first.

    Two instances:
    - {!Float}: IEEE-754 doubles with 1e-9 tolerances, Dantzig's rule
      with a switch to Bland's after 5,000 steps and a 200,000-step cap.
      {!Certify} proves its optimum through the {{!S.certificate} basis
      certificate}.
    - {!Exact}: rationals, Bland's rule from the first step and no step
      cap, so optima are exact — the fallback of {!Certify.minimize} and
      the engine of {!Certify.solve_exact}.

    Activity shows up in the [lp.float.*] and [lp.exact.*] {!Obs}
    counters ([pivots], [pivots_per_solve], [lp.float.stall]) and the
    [lp.float.minimize] / [lp.exact.minimize] trace spans. *)

module type NUM = sig
  type t

  val zero : t
  val one : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val neg : t -> t
  val abs : t -> t
  val lt : t -> t -> bool
  val le : t -> t -> bool
  val is_zero : t -> bool

  val eps : t
  (** Tolerance of every bound and sign test; zero for exact numbers. *)

  val name : string
  (** Metric and span stem: [lp.<name>.pivots], [lp.<name>.minimize]. *)

  val bland_after : int
  (** Steps of Dantzig's largest-coefficient rule before Bland's
      smallest-index rule takes over; [0] runs Bland's rule throughout. *)

  val step_limit : int option
  (** Steps per phase before the solve gives up with [Stall]. *)

  val add_scaled : t array -> t -> t array -> unit
  (** [add_scaled dst c src]: [dst.(v) <- dst.(v) + c * src.(v)] wherever
      [src.(v)] is nonzero — a pivot's row elimination. *)

  val neg_scale : t array -> t -> unit
  (** [neg_scale row k]: [row.(v) <- -row.(v) * k] — a pivot row's
      rescaling. *)
end

module type S = sig
  type num

  type result =
    | Optimal of { objective : num; values : num array }
        (** [values] is indexed by variable id. *)
    | Infeasible
    | Unbounded
    | Stall of { values : num array }
        (** Step limit hit (numeric cycling); only with a [step_limit].
            The carried point is the last iterate — possibly infeasible,
            never trusted — counted by [lp.<name>.stall]. *)

  (** {2 Basis certificates}

      Where each variable sat when phase II declared optimality: in the
      basis, at a bound, or (for nonbasic variables whose box allows it)
      strictly between bounds.  Indices cover the variables first, then
      one slack per row in insertion order. *)

  type var_status = Basic | At_lower | At_upper | Between of num
  type certificate = { statuses : var_status array }

  type t

  val create : unit -> t

  val add_var : ?lo:num -> ?hi:num -> t -> int
  (** A new variable; an absent bound leaves that side free. *)

  val set_initial : t -> int -> num -> unit
  (** Warm start: the variable's initial value, clamped to its box. *)

  val add_range : t -> (int * num) list -> lo:num option -> hi:num option -> unit
  (** The row [lo <= terms . x <= hi] ([None] = free side), one slack. *)

  val minimize :
    t -> (int * num) list -> constant:num -> result * certificate option
  (** Minimises [terms . x + constant]; the certificate is present exactly
      when the result is [Optimal]. *)
end

module Make (N : NUM) : S with type num = N.t
module Float : S with type num = float
module Exact : S with type num = Numeric.Rat.t
