(** The paper's purpose-built benchmarking kernel (§6.3): "a small inner
    loop that fits into a single warp, but is not collapsible with the
    outer-loop nest".

    Each outer iteration computes a row-dependent base value in region
    code (this is the non-collapsible data dependency), then a 32-trip
    inner loop does arithmetic-heavy work per element.  The paper runs the
    teams region SPMD and the parallel region generic, reporting a 2.15x
    speedup at SIMD group size 32. *)

type shape = { rows : int; inner : int; flops_per_elem : int; seed : int }

val default_shape : shape
(** 32-trip inner loop, compute-heavy body. *)

type instance

val generate : shape -> instance
val shape_of : instance -> shape
val reference : instance -> float array

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
    false) additionally declares the grid homogeneous — every row costs
    the same, so teams are classed by their distribute-chunk length
    ({!Omprt.Workshare.distribute_extent}).  Neither changes the report;
    [dedup] skips redundant blocks, so use it for timing sweeps only
    (the skipped teams' output rows stay unwritten). *)

val run_two_level :
  cfg:Gpusim.Config.t ->
  ?run:Gpusim.Run.t ->
  ?num_teams:int ->
  ?threads:int ->
  ?dedup:bool ->
  instance ->
  Harness.run
(** Serial inner loop (group size 1) — the paper's two-level baseline. *)

val verify : instance -> float array -> (unit, string) result
