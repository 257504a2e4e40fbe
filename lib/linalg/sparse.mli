(** Sparse linear algebra: CSR/CSC storage and a sparse LU factorization
    with Markowitz-style (fill-reducing) pivot ordering.

    Two instances: {!F} over floats (threshold partial pivoting within
    the sparsest column), the sparse counterpart of the dense {!Lu}, and
    {!Q} over exact rationals (any nonzero pivot, pure Markowitz
    ordering).
    Both report fill-in to the [linalg.lu.fill_in] observability counter
    — see [docs/linalg.md] for the layout, the ordering heuristic, and
    when sparse beats dense. *)

module type ELT = sig
  type t

  val zero : t
  val add : t -> t -> t
  val sub : t -> t -> t
  val mul : t -> t -> t
  val div : t -> t -> t
  val is_zero : t -> bool

  val magnitude : t -> float
  (** Pivot admissibility measure; exact instances may map every nonzero
      to [1.0]. *)

  val pivot_threshold : float
  (** Entry admissible as pivot when
      [magnitude >= pivot_threshold * column max]; [0.0] admits any
      nonzero. *)

  val singular_eps : float
  (** Columns whose largest magnitude falls below this are treated as
      structurally zero. *)
end

module type S = sig
  type elt
  type t

  val of_triplets : rows:int -> cols:int -> (int * int * elt) list -> t
  (** Build a CSR matrix from (row, col, value) triplets; duplicates are
      summed, exact zeros dropped. *)

  val rows : t -> int
  val cols : t -> int
  val nnz : t -> int

  val get : t -> int -> int -> elt
  (** Linear scan of the row: meant for tests and spot reads, not inner
      loops. *)

  val mul_vec : t -> elt array -> elt array

  val transpose : t -> t
  (** The CSR form of the transpose — equivalently the CSC view of the
      original matrix. *)

  val row : t -> int -> (int * elt) list
  (** Entries of one row as (column, value) pairs, columns ascending. *)

  exception Singular

  type lu

  val lu_factor : t -> lu
  (** [P A Q = L U] with Markowitz-style pivoting: at each step take the
      sparsest admissible column, and within it the admissible row with
      the fewest active entries (minimizing the [(r-1)(c-1)] fill
      bound), ties broken toward larger magnitude.
      @raise Singular when no admissible pivot remains. *)

  val solve : lu -> elt array -> elt array
  (** [solve f b] returns [x] with [A x = b]. *)

  val solve_transpose : lu -> elt array -> elt array
  (** [solve_transpose f c] returns [y] with [A^T y = c] from the same
      factorization — the access pattern of on-demand PTDF rows and of
      dual solves in certificate checking. *)

  val fill_in : lu -> int
  (** [nnz (L + U) - nnz A], never negative: the price of this
      factorization's ordering. *)
end

module Make (E : ELT) : S with type elt = E.t

module F : S with type elt = float
(** Float instance: relative pivot threshold 0.1 within the chosen
    column, columns below 1e-12 treated as zero. *)

module Q : S with type elt = Numeric.Rat.t
(** Exact rational instance: any nonzero pivot is admissible, so the
    ordering is pure Markowitz and results are exact. *)
