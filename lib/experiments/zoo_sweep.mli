(** The device-zoo sweep — re-runs the paper's headline figures on every
    {!Gpusim.Zoo} entry and checks the *relative* claims per
    configuration:

    - ["fig9 simd>1"]: the three-level simd version beats the two-level
      baseline at some group size, for every fig9 kernel;
    - ["fig10 gen<=spmd"]: generic-mode simd never beats SPMD-mode simd;
    - ["E6 red>atomic"]: the simd reduction beats the atomic workaround.

    A configuration where a claim fails is an {e inversion}; the report
    names it rather than hiding it. *)

type verdict = {
  claim : string;
  holds : bool;
  detail : string;  (** the per-kernel numbers behind the verdict *)
}

type row = { device : string; verdicts : verdict list }
type t = { rows : row list }

val claims : string list
(** Claim labels, in verdict order. *)

val run :
  ?scale:float ->
  ?run:Gpusim.Run.t ->
  ?entries:Gpusim.Zoo.entry list ->
  unit ->
  t
(** Sweep the given entries (default: the full {!Gpusim.Zoo.sweep}).
    [scale] multiplies every figure's problem sizes as usual. *)

val inversions : t -> (string * string) list
(** [(device, claim)] pairs that failed, in sweep order. *)

val to_table : t -> Ompsimd_util.Table.t
val to_csv : t -> string
val print : t -> unit
