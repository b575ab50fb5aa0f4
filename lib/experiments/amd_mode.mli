(** Experiment E5 — §5.4.1: the AMD wavefront-barrier gap.

    LLVM/OpenMP provides no wavefront-level barrier on AMD GPUs, so the
    generic-SIMD mode cannot rendezvous a group and every generic-mode
    simd loop degrades to sequential execution (group size one), while
    SPMD-SIMD still works.  This experiment runs the Fig 9 kernels on the
    NVIDIA-like and AMD-like devices and reports the speedup over each
    device's own two-level baseline: the generic rows collapse to ~1x on
    AMD, the SPMD rows survive. *)

type row = {
  kernel : string;
  device : string;
  mode : string;  (** "generic-SIMD" or "SPMD-SIMD" *)
  group_size : int;
  speedup : float;  (** vs the same device's two-level baseline *)
}

type t = { rows : row list }

val run : ?scale:float -> ?run:Gpusim.Run.t -> unit -> t
val to_table : t -> Ompsimd_util.Table.t
val print : t -> unit
