(** Every [OMPSIMD_*] knob, parsed once at the edge into one value.

    Entry points (the CLI, the bench, test helpers) call {!of_env} once
    and hand the pieces down as values: launch settings as a
    {!Gpusim.Run.t}, compile knobs and service configs as records.
    Parsing is eager: a malformed value fails at startup, naming the
    knob.  Unset and blank both mean the default. *)

type t = {
  device : Gpusim.Config.t;  (** [OMPSIMD_DEVICE] *)
  domains : int;  (** [OMPSIMD_DOMAINS], capped at the cores - 1 *)
  knobs : Openmp.Offload.knobs;
      (** [OMPSIMD_EVAL], [OMPSIMD_PASSES], [OMPSIMD_SHARING_BYTES] and
          [OMPSIMD_SHARING_DYNAMIC] *)
  faults : Gpusim.Fault.plan option;
      (** [OMPSIMD_FAULTS] seeded by [OMPSIMD_FAULT_SEED] *)
  watchdog : float;  (** [OMPSIMD_WATCHDOG] *)
  sanitize : bool;  (** [OMPSIMD_SANITIZE] *)
  fleet : Serve.Fleet.config;
      (** the [OMPSIMD_SERVE_*] and [OMPSIMD_FLEET_*] knobs on [device];
          [fleet.base] is the classic scheduler's config *)
  shards : int option;  (** [OMPSIMD_SERVE_SHARDS] as given *)
  telemetry : string option;  (** [OMPSIMD_SERVE_TELEMETRY]: a path *)
  autoscale : bool;  (** [OMPSIMD_SERVE_AUTOSCALE] *)
  budget : int option;  (** [OMPSIMD_SERVE_BUDGET] *)
  cooldown : int;  (** [OMPSIMD_SERVE_COOLDOWN] *)
}
(** Defaults are README's knob table. *)

val parse_tenants : string -> (string * int) list
(** ["alice=3,bob"] (a bare name weighs 1).
    @raise Invalid_argument on a malformed token. *)

val parse_devices : string -> Gpusim.Config.t list
(** ["w32-hw,w64-sw"]: {!Gpusim.Zoo} names, one per shard.
    @raise Invalid_argument naming the unknown device. *)

val of_lookup : (string -> string option) -> t
(** Parse the knobs from a lookup table.
    @raise Invalid_argument on a malformed value, naming the knob. *)

val of_env : unit -> t
(** [of_lookup] over the process environment. *)

val run : ?pool:Gpusim.Pool.t -> t -> Gpusim.Run.t
(** A fresh run with these launch settings, on [pool] (the caller sizes
    it by [domains]). *)

val autoscale :
  t -> slo:float option -> shards:int -> servers:int -> Serve.Autoscale.config
(** {!Serve.Autoscale.disabled} without an SLO; otherwise per the
    autoscaler knobs, capped at [3 * servers] per shard. *)

val service : t -> cfg:Gpusim.Config.t -> Serve.Service.config
(** [fleet.base] on device [cfg]. *)

val fleet : t -> cfg:Gpusim.Config.t -> Serve.Fleet.config
(** [fleet] on base device [cfg]. *)
