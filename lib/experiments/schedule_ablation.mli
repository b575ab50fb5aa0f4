(** Experiment E9 (extension) — loop schedules under row-length imbalance.

    The paper's sparse_matvec uses matrices whose inner trip count "varies
    based on the sparsity of the matrix".  With a static schedule the
    OpenMP thread that drew the heavy rows becomes the team's critical
    path; a dynamic schedule absorbs the imbalance at the price of a
    fetch-add per chunk.  This ablation sweeps schedules over a power-law
    matrix (heavy tail) and a uniform one (no imbalance — dynamic can only
    lose there). *)

type row = {
  matrix : string;  (** "power-law" or "uniform" *)
  schedule : string;
  cycles : float;
  relative : float;  (** static cycles / this schedule's cycles *)
}

type t = { rows : row list }

val run :
  ?scale:float -> ?run:Gpusim.Run.t -> cfg:Gpusim.Config.t -> unit -> t
val to_table : t -> Ompsimd_util.Table.t
val print : t -> unit
