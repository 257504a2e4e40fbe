(** Certified float linear programming — FPTaylor-style "compute in
    floats, prove in rationals".

    The pipeline behind {!minimize}:

    + exact presolve ({!Analysis.Presolve}) on the recorded problem — an
      [Infeasible] verdict here is already sound;
    + float simplex ({!Flp}) on the reduced problem, which emits a
      {{!Flp.certificate} basis certificate} at optimality;
    + one exact refactorization of the certified basis with the
      fraction-free {!Linalg.Bareiss} kernel: pin nonbasic variables to
      their claimed bounds, solve the square basic system in rationals,
      check primal bounds and reduced-cost signs exactly, and read the
      exact optimum off the basis;
    + on any gap — certificate rejected, float stall/cycle, float
      infeasible or unbounded verdict — transparent fallback to the exact
      {!Lp} simplex, warm-started from the float point.

    Either way the returned optimum is exact; [certified] records which
    path produced it.  Observable as [lp.certify.{ok,fail,fallback}]
    counters and the [lp.certify.seconds] check-time histogram. *)

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
(** Warm start for the float solve (and the exact fallback when no float
    point is available). *)

val add_le : t -> (int * Numeric.Rat.t) list -> Numeric.Rat.t -> unit
val add_ge : t -> (int * Numeric.Rat.t) list -> Numeric.Rat.t -> unit
val add_eq : t -> (int * Numeric.Rat.t) list -> Numeric.Rat.t -> unit

val minimize :
  ?mangle_cert:(Flp.certificate -> Flp.certificate) ->
  t ->
  (int * Numeric.Rat.t) list ->
  constant:Numeric.Rat.t ->
  outcome
(** Certified minimization of [terms . x + constant].  [mangle_cert] is a
    test hook applied to the certificate before the exact check (corrupt
    it and the check must fail into the fallback path). *)

val solve_exact :
  t -> (int * Numeric.Rat.t) list -> constant:Numeric.Rat.t -> outcome
(** The same problem on the exact simplex only — the reference the
    certified path is compared against in tests ([certified] is [false]). *)
