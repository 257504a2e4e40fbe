(** The one LP front end: certified float linear programming —
    FPTaylor-style "compute in floats, prove in rationals" — and the exact
    reference solve.  Variables, rows and warm starts are recorded here,
    and every solve presolves them exactly once.

    The pipeline behind {!minimize}:

    + exact presolve ({!Analysis.Presolve}) on the recorded problem — an
      [Infeasible] verdict here is already sound;
    + float simplex ({!Lp.Float}) on the reduced problem, which emits a
      {{!Lp.S.certificate} basis certificate} at optimality;
    + one exact refactorization of the certified basis with the
      fraction-free {!Linalg.Bareiss} kernel: pin nonbasic variables to
      their claimed bounds, solve the square basic system in rationals,
      check primal bounds and reduced-cost signs exactly, and read the
      exact optimum off the basis;
    + on any gap — certificate rejected, float stall/cycle, float
      infeasible or unbounded verdict — transparent fallback to the exact
      simplex ({!Lp.Exact}) on the same presolved rows, warm-started from
      the float point.

    Either way the returned optimum is exact; [certified] records which
    path produced it.  Observable as [lp.certify.{ok,fail,fallback}]
    counters, the [lp.certify.seconds] check-time histogram and the
    [lp.presolve.*] counters. *)

type t

type outcome =
  | Optimal of {
      objective : Numeric.Rat.t;
      values : Numeric.Rat.t array;  (** indexed by variable id *)
      certified : bool;
          (** [true]: certificate validated exactly; [false]: exact
              fallback produced the result (equally sound, slower) *)
    }
  | Infeasible
  | Unbounded

val create : unit -> t
val add_var : ?lo:Numeric.Rat.t -> ?hi:Numeric.Rat.t -> t -> int

val set_initial : t -> int -> Numeric.Rat.t -> unit
(** Warm start for the float solve and {!solve_exact} (and for the exact
    fallback when no float point is available). *)

val add_row :
  t -> ?lo:Numeric.Rat.t -> ?hi:Numeric.Rat.t -> (int * Numeric.Rat.t) list -> unit
(** The row [lo <= terms . x <= hi]; an absent bound leaves that side
    free, and [~lo:b ~hi:b] is an equality. *)

val minimize :
  ?mangle_cert:(Lp.Float.certificate -> Lp.Float.certificate) ->
  t ->
  (int * Numeric.Rat.t) list ->
  constant:Numeric.Rat.t ->
  outcome
(** Certified minimization of [terms . x + constant].  [mangle_cert] is a
    test hook applied to the certificate before the exact check (corrupt
    it and the check must fail into the fallback path). *)

val solve_exact :
  t -> (int * Numeric.Rat.t) list -> constant:Numeric.Rat.t -> outcome
(** The same problem, presolved, on the exact simplex ({!Lp.Exact}) alone
    from the recorded warm start: the exact reference the certified path
    is compared against, and the angle-formulation OPF's solve
    ([certified] is [false]). *)
