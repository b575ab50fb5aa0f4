(** laplace3d — 3-D heat-diffusion (7-point Jacobi) kernel (§6.4).

    Three nested parallelizable loops over the grid interior: the outer
    two are flattened across teams x OpenMP threads, the innermost (k,
    unit stride) is the [simd] loop.  Used in the paper to measure the
    cost of the execution modes, not a simd win: "No SIMD" (two-level,
    group size 1), "SPMD SIMD" and "generic SIMD" should all be within a
    few percent, generic trailing by roughly 15%. *)

type shape = { n : int; seed : int }

val default_shape : shape

type instance

val generate : shape -> instance
val shape_of : instance -> shape

val reference : instance -> float array
(** One Jacobi sweep over the interior; boundaries carried through. *)

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
(** [run] carries the launch settings (its pool simulates teams on
    several host domains); [dedup] (default
    false) declares the Jacobi grid homogeneous — teams are classed by
    their distribute-chunk length over the flattened (i,j) interior
    ({!Omprt.Workshare.distribute_extent}).  Neither changes the report;
    [dedup] is for timing sweeps only (skipped teams' output stays
    unwritten). *)

val run_no_simd :
  cfg:Gpusim.Config.t ->
  ?run:Gpusim.Run.t ->
  ?num_teams:int ->
  ?threads:int ->
  ?dedup:bool ->
  instance ->
  Harness.run
(** The paper's "No SIMD" reference point: two-level, serial k loop. *)

val verify : instance -> float array -> (unit, string) result
