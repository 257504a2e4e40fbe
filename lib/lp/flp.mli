(** Float bounded-variable simplex — the same algorithm as {!Lp} in
    IEEE-754 doubles with epsilon tolerances — and the float engine of
    {!Certify}, its only caller.

    On its own a float optimum carries no exactness guarantee; {!Certify}
    runs this solver on a problem it has already presolved exactly, then
    proves the returned {{!certificate} basis certificate} in rationals
    or falls back to the exact simplex.  Rows are recorded with
    {!add_range} and the tableau is built on the {!minimize_cert} call.
    Activity shows up in the [lp.float.pivots] {!Obs} counter and the
    [lp.float.minimize] trace span. *)

type t

type result =
  | Optimal of { objective : float; values : float array }
  | Infeasible
  | Unbounded
  | Stall of { values : float array }
      (** Step-limit hit before termination (numeric cycling).  The carried
          point is the solver's last iterate — possibly infeasible, never
          trusted; callers must re-solve exactly (see {!Certify}), at best
          warm-started from [values].  Counted by [lp.float.stall]. *)

(** {2 Basis certificates}

    Where each variable sat when phase II declared optimality: in the
    basis, at a bound, or (for nonbasic variables whose box allows it)
    strictly between bounds.  Indices cover user variables first, then one
    slack per recorded row in insertion order. *)

type var_status = Basic | At_lower | At_upper | Between of float

type certificate = { statuses : var_status array }

val create : unit -> t
val add_var : ?lo:float -> ?hi:float -> t -> int

val set_initial : t -> int -> float -> unit
(** Warm start: initial value for a variable (clamped to bounds).  Call
    before [minimize_cert]. *)

val add_range : t -> (int * float) list -> lo:float -> hi:float -> unit
(** Two-sided row [lo <= terms . x <= hi] ([neg_infinity]/[infinity] for a
    free side) recorded as a single constraint — one slack, which keeps the
    certificate's slack indices aligned with row order (see {!Certify}). *)

val minimize_cert :
  t -> (int * float) list -> constant:float -> result * certificate option
(** Builds the tableau (one-shot: adding rows afterwards raises
    [Invalid_argument]), minimizes [terms . x + constant], and returns
    the basis certificate — present exactly when the result is
    [Optimal]. *)
