(** Gaussian elimination: reduced row-echelon form and rank.

    Pivoting is partial (largest absolute entry in the column) and rank
    decisions use a tolerance relative to the largest entry encountered,
    which is appropriate for the 0/1 incidence matrices produced by the
    tomography equation builder. *)

(** Result of {!rref_dense}. *)
type rref = {
  reduced : Matrix.t;  (** the reduced row-echelon form *)
  pivot_cols : int list;  (** pivot column indices, in row order *)
  rank : int;
}

(** Default pivot tolerance ([1e-10]), shared with
    {!Sparse_gauss.rref}. *)
val default_tol : float

(** [rref_dense ?tol m] computes the reduced row-echelon form by walking
    the dense rows.  [tol] (default [1e-10]) is the relative threshold
    below which a pivot candidate is treated as zero. *)
val rref_dense : ?tol:float -> Matrix.t -> rref

(** [rref_sparse ?tol m] eliminates via the sparse kernel
    ({!Sparse_gauss.rref}): converts, eliminates, converts back.  Both
    kernels perform the identical floating-point operations on nonzero
    entries, so the result equals {!rref_dense}'s bit for bit (up to the
    sign of zero entries). *)
val rref_sparse : ?tol:float -> Matrix.t -> rref

(** [rank ?tol m] is the numerical rank, via {!rref_dense}. *)
val rank : ?tol:float -> Matrix.t -> int
