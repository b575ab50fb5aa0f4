(** Experiment E4 — §5.5: outlined-region dispatch cost.

    LLVM/Clang turns the indirect call of an outlined function into an
    if-cascade over the known regions of the translation unit, falling
    back to a true indirect call for unknown pointers.  This ablation
    sweeps the region's position in the cascade (and the out-of-table
    case) on a kernel that launches many tiny simd regions, making the
    per-region dispatch cost visible. *)

type row = {
  table_size : int;
  fn_id : int;  (** -1 encodes "not in the table" (indirect fallback) *)
  cycles : float;
}

type t = { rows : row list }

val run :
  ?scale:float -> ?run:Gpusim.Run.t -> cfg:Gpusim.Config.t -> unit -> t
val to_table : t -> Ompsimd_util.Table.t
val print : t -> unit
