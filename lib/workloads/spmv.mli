(** sparse_matvec — CSR sparse matrix-vector product (§6.3).

    Adapted, like the paper's version, from the OpenACC best-practices
    kernel: for every row, a short data-dependent inner loop over the
    row's nonzeros.  The paper could not use a reduction clause, so both
    variants accumulate into [y.(row)] with atomic updates; the
    reduction-clause variant is provided separately as the E6 extension.

    Two-level structure (the baseline): [teams distribute] over rows —
    which forces the teams region into generic mode — with an inner
    [parallel for] over the row's nonzeros on 32-thread teams.

    Three-level structure: combined [teams distribute parallel for] over
    rows (teams SPMD), [simd] over the nonzeros, parallel region generic. *)

type profile =
  | Uniform of int  (** every row has exactly this many nonzeros *)
  | Banded of { mean : int; spread : int }
      (** row length uniform in \[mean-spread, mean+spread\] *)
  | Power_law of { max_nnz : int; s : float }
      (** zipf-distributed row lengths — high variance, like the paper's
          "varies based on the sparsity" matrices *)

type shape = {
  rows : int;
  cols : int;
  profile : profile;
  band : int;  (** column indices fall within +/- band of the diagonal *)
  seed : int;
}

val default_shape : shape

type instance

val generate : shape -> instance
val shape_of : instance -> shape
val nnz : instance -> int
val row_lengths : instance -> int array

val reference : instance -> float array
(** Sequential host SpMV. *)

val run_two_level :
  cfg:Gpusim.Config.t ->
  ?run:Gpusim.Run.t ->
  ?trace:Gpusim.Trace.t ->
  ?reset_l2:bool ->
  ?num_teams:int ->
  ?threads:int ->
  instance ->
  Harness.run
(** [reset_l2] defaults to [true] (cold caches); pass [false] to measure
    a warm re-run, the paper's average-of-10 methodology.  [run]'s pool fans
    the teams over host domains; row lengths are data-dependent, so spmv
    never declares a [block_class] — every block simulates. *)

val run_simd :
  cfg:Gpusim.Config.t ->
  ?run:Gpusim.Run.t ->
  ?trace:Gpusim.Trace.t ->
  ?reset_l2:bool ->
  ?num_teams:int ->
  ?threads:int ->
  ?schedule:Omprt.Workshare.schedule ->
  mode3:Harness.mode3 ->
  instance ->
  Harness.run
(** [schedule] applies to the within-team half of the combined rows loop
    (default static); [Dynamic] lets OpenMP threads steal rows, which
    matters for power-law row-length distributions. *)

val run_simd_reduction :
  cfg:Gpusim.Config.t ->
  ?run:Gpusim.Run.t ->
  ?trace:Gpusim.Trace.t ->
  ?reset_l2:bool ->
  ?num_teams:int ->
  ?threads:int ->
  mode3:Harness.mode3 ->
  instance ->
  Harness.run
(** E6 extension: the inner product accumulated with the warp-shuffle
    reduction ({!Omprt.Simd.simd_sum}) instead of atomics. *)

val verify : instance -> float array -> (unit, string) result
