(** Where a request lands: the fleet's placement decision.

    A homogeneous fleet places by a consistent-hash ring over the
    request's engine-free content key: 64 MD5 points per shard, so the
    mapping is stable across hosts and OCaml versions and adding a
    shard moves only the keys that hash next to its points.

    A heterogeneous fleet (more than one device name) places in two
    steps.  First a device name: a [device=] pin wins when some shard
    carries it; otherwise, with affinity on, the device whose minimum
    observed member cycles for this content is lowest (unmeasured
    devices cost 0.0, so every device is explored before any is ruled
    out; ties break by hashing the content key over the tied {e names});
    with affinity off, the union of every device that fits.  Then a
    shard of that group, by the group's sub-ring.  Only devices whose
    warp width and block limit fit the launch geometry are candidates;
    when none fits, all are, and the launch fails as it would on a
    homogeneous fleet.

    Sub-ring vnodes are labelled by (device name, member index within
    the group), never by shard id, and so are the shard labels
    ["name/j"]: permuting the device multiset over shard ids maps each
    content key to the same group member, which is what keeps
    heterogeneous replays shuffle-invariant.

    The affinity estimator is a minimum, not a moving average: min is
    commutative and idempotent, so the table at any virtual instant is
    a pure function of the finishes before it.  With [decay] > 0 the
    minima are kept per telemetry window and entries older than [decay]
    windows expire lazily, so a device unmeasured that long costs 0.0
    again and a nonstationary trace re-explores. *)

type ring = (int * int) array
(** Sorted (hash position, shard id) points. *)

val make_ring : int -> ring
(** The ring over shards [0 .. n-1]. *)

val place : ring -> string -> int
(** The shard owning the key's clockwise successor point. *)

type t

val create :
  devices:Gpusim.Config.t array -> affinity:bool -> decay:int -> window:float -> t
(** [devices.(sid)] is shard [sid]'s device; [window] is the telemetry
    window length that ages the affinity table. *)

val device : t -> int -> Gpusim.Config.t

val labels : t -> string array
(** Per shard, its member label ["name/j"]: [j] counts the shards
    before it that carry the same device. *)

val label_order : t -> int array
(** Shard ids sorted by label: the order telemetry emits and the
    autoscaler contends in, so both replay under device shuffles. *)

val home : t -> now:float -> string -> Request.spec -> int
(** [home t ~now ckey spec]: the shard an arrival with content key
    [ckey] lands on at virtual time [now]. *)

val plain : t -> string -> int
(** The shard the plain content ring picks, ignoring devices; [home]
    differs from it only on a heterogeneous fleet. *)

val same_group : t -> int -> int -> bool
(** Whether two shards carry the same device name (stealing stays
    inside a device group). *)

val observe : t -> now:float -> shard:int -> string -> float -> unit
(** [observe t ~now ~shard ckey cycles]: a healthy member with content
    [ckey] ran [cycles] on [shard]'s device. *)

val cost : t -> now:float -> string -> string -> float
(** [cost t ~now ckey name]: the live minimum observed on device
    [name] for [ckey]; 0.0 when unmeasured or expired. *)
