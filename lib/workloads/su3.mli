(** SU3_bench — lattice QCD SU(3) matrix-matrix multiply (§6.3).

    For every lattice site and each of the four directions, a 3x3 complex
    matrix product C = A x B.  Flattened, that is a 36-iteration inner
    loop (4 directions x 9 output elements) which the original benchmark
    "executed serially by each thread"; the paper applies [simd] to it.
    Both the teams and the parallel region run in SPMD mode, so the
    baseline is simply the SIMD variant with group size 1. *)

type shape = { sites : int; seed : int }

val default_shape : shape

val inner_trip : int
(** 36 — the paper's fixed inner trip count. *)

type instance

val generate : shape -> instance
val shape_of : instance -> shape

val reference : instance -> float array
(** Sequential host result: C as interleaved re/im floats. *)

val run :
  cfg:Gpusim.Config.t ->
  ?run:Gpusim.Run.t ->
  ?trace:Gpusim.Trace.t ->
  ?reset_l2:bool ->
  ?num_teams:int ->
  ?threads:int ->
  ?dedup:bool ->
  mode3:Harness.mode3 ->
  instance ->
  Harness.run
(** Three-level kernel; [group_size = 1] reproduces the serial-inner-loop
    baseline.  [run]'s pool simulates teams on several host domains; [dedup]
    (default false) declares the grid homogeneous — teams are classed by
    (chunk extent, first-site parity), the parity capturing the line
    phase of the 576-byte site records.  Neither changes the report;
    [dedup] is for timing sweeps only (skipped teams' C stays
    unwritten). *)

val run_two_level :
  cfg:Gpusim.Config.t ->
  ?run:Gpusim.Run.t ->
  ?num_teams:int ->
  ?threads:int ->
  ?dedup:bool ->
  instance ->
  Harness.run
(** Convenience: [run] with SPMD/SPMD and group size 1. *)

val verify : instance -> float array -> (unit, string) result
