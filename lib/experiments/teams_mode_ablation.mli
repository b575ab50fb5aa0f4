(** Experiment E7 — §6.3 (in-text): the cost of generic teams mode.

    Part of sparse_matvec's 3.5x came from the teams region becoming SPMD:
    "extra warps are not needed for the team main thread".  This ablation
    runs the same SPMD-friendly kernel (su3_bench) under both teams modes
    with identical worker counts, exposing the extra warp's occupancy cost
    and the team-level signalling overhead. *)

type row = {
  teams_mode : string;
  block_threads : int;  (** including the extra main warp, if any *)
  resident_blocks : int;
  cycles : float;
  relative : float;  (** SPMD cycles / this mode's cycles *)
}

type t = { rows : row list }

val run :
  ?scale:float -> ?run:Gpusim.Run.t -> cfg:Gpusim.Config.t -> unit -> t
val to_table : t -> Ompsimd_util.Table.t
val print : t -> unit
