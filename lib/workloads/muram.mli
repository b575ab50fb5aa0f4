(** muram_transpose and muram_interpol — kernels adapted (like the
    paper's) from the MURaM radiative-MHD code's OpenACC port (§6.4).

    [transpose] permutes the leading two axes of a 3-D field with the
    unit-stride axis innermost; [interpol] is a fourth-order interpolation
    stencil along the innermost axis.  Both have three parallelizable
    loops and are used to compare execution-mode overhead (Fig 10). *)

type shape = { ni : int; nj : int; nk : int; seed : int }

val default_shape : shape

type instance

val generate : shape -> instance
val shape_of : instance -> shape

val reference_transpose : instance -> float array
val reference_interpol : instance -> float array

val run_transpose :
  cfg:Gpusim.Config.t ->
  ?run:Gpusim.Run.t ->
  ?trace:Gpusim.Trace.t ->
  ?reset_l2:bool ->
  ?num_teams:int ->
  ?threads:int ->
  mode3:Harness.mode3 ->
  instance ->
  Harness.run

val run_interpol :
  cfg:Gpusim.Config.t ->
  ?run:Gpusim.Run.t ->
  ?trace:Gpusim.Trace.t ->
  ?reset_l2:bool ->
  ?num_teams:int ->
  ?threads:int ->
  mode3:Harness.mode3 ->
  instance ->
  Harness.run

val verify_transpose : instance -> float array -> (unit, string) result
val verify_interpol : instance -> float array -> (unit, string) result
