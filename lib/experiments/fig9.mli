(** Experiment E1 — Fig 9 of the paper: speedup of the three-level simd
    implementation over the original two levels of parallelism, across all
    possible SIMD group sizes, for sparse_matvec, su3_bench and the ideal
    benchmarking kernel.

    Paper reference points: sparse_matvec peaks at ~3.5x with group size
    8; su3_bench at ~1.3x with group size 4 (2 and 8 close); the ideal
    kernel at ~2.15x with group size 32 (16 close). *)

type row = {
  kernel : string;
  group_size : int;
  baseline_cycles : float;
  simd_cycles : float;
  speedup : float;
}

type t = {
  rows : row list;
  group_sizes : int list;
}

val group_sizes : int list
(** 2, 4, 8, 16, 32 — the sweep of Fig 9 on the paper's 32-wide warp. *)

val group_sizes_for : Gpusim.Config.t -> int list
(** The sweep restricted to group sizes dividing the device's warp —
    identical to {!group_sizes} on 32-wide devices, extended to 64 on
    64-wide ones.  The default for {!run}. *)

val run :
  ?scale:float ->
  ?run:Gpusim.Run.t ->
  ?dedup:bool ->
  ?group_sizes:int list ->
  cfg:Gpusim.Config.t ->
  unit ->
  t
(** Run the full experiment.  [scale] multiplies the problem sizes
    (default 1.0; tests use small values); [run] carries the launch
    settings, and its pool fans every launch's
    block simulation over host domains; [dedup] (default false) applies
    the homogeneous-grid fast path to the uniform su3 and ideal kernels.  Both
    keep the rows bit-identical to the plain sequential run (the sweep
    only reads reports, never kernel output). *)

val best : t -> kernel:string -> row
(** The row with the highest speedup for a kernel.
    @raise Not_found if the kernel is absent. *)

val to_table : t -> Ompsimd_util.Table.t
val to_csv : t -> string
(** Header + one row per (kernel, group size) — for external plotting. *)

val print : t -> unit
