(** The serve engine: N virtual devices behind one admission plane.

    This is the service's only event loop: one heap in virtual time
    drives every shard, and the classic {!Scheduler} is a one-shard
    fleet with every fleet feature off.  The loop sequences decisions
    that each live in their own module:

    - {!Placement} routes an arrival by its engine-free content key
      ({!Ompir.Kdigest} + guardize + resolved pass spec) over a
      consistent-hash ring — on heterogeneous fleets, first to the
      device whose minimum observed cycles for that content is lowest
      (or a [device=] pin), then to a member of that device group;
    - {!Admission} keeps each shard's queue and its per-tenant
      weighted-fair eviction: on a full queue the most over-share
      tenant loses its newest slot to an under-share newcomer, and the
      evictee re-enters the normal retry-with-backoff path;
    - {!Breaker} keeps each shard's per-kernel circuit breakers;
    - {!Batch} launches a leader and its same-content same-geometry
      queue mates as one merged grid: one compile charge, one server,
      exact per-request sub-reports.

    The loop itself adds work stealing (an idle shard pulls from the
    deepest queue of its device group), recovery relaunches with
    backoff, the window-boundary control plane ({!Telemetry},
    {!Autoscale}, SLO shedding) and the end-of-run fold into
    {!Metrics}.

    Determinism: nothing reads the host clock, placement hashes MD5,
    and every member launch pins its {!Gpusim.Fault} nonce to (request
    id, attempt) — injected faults are a pure function of the plan and
    the request, independent of shard count, batch shape and dispatch
    order.  A replay of the same trace under the same settings is
    bit-identical; {!results_json} is additionally invariant across
    shard counts and batch limits for configs that lose no requests to
    admission, and — because placement keys on device {e names}, never
    shard ids — across shuffles of the device multiset over shard
    ids. *)

type config = {
  base : Service.config;
      (** per-shard queue bound / servers / retries / backoff / breaker,
          plus the device, compile knobs and the fleet-wide compile-cache
          capacity *)
  shards : int;
  batch : int;  (** max members per merged grid; 1 disables batching *)
  steal : bool;  (** idle shards pull from the deepest neighbour queue *)
  memo : bool;
      (** memoize idempotent launch results by content (same template,
          size, geometry, data seed); automatically bypassed while a
          fault plan is armed, and never changes a report byte — only
          host time *)
  tenants : (string * int) list;
      (** fair-admission weights, e.g. [("alice", 3)]; absent tenants
          weigh 1 *)
  devices : Gpusim.Config.t list;
      (** per-shard device configs (usually {!Gpusim.Zoo} entries),
          cycled across shard ids; [[]] keeps the homogeneous fleet on
          the base device.  Each config is re-validated at [run]. *)
  affinity : bool;
      (** content->device affinity placement on heterogeneous fleets:
          requests route to the device whose minimum observed member
          cycles for their content key is lowest (unmeasured devices
          cost 0, so all get explored), then to a shard of that device
          by the device group's sub-ring.  No effect when every shard
          carries the same device. *)
  telemetry : bool;
      (** collect the windowed JSONL telemetry stream into
          [result.telemetry].  Observation (and the control loops it
          drives) is always on; this only controls emission. *)
  shed : bool;
      (** SLO-aware admission: while the fleet's windowed p99 is over
          [base.slo], shed lowest-priority arrivals (and over-share
          tenants) as {!Service.Shed_slo}.  Inert without an SLO. *)
  autoscale : Autoscale.config;
      (** the window-boundary concurrency control loop; see
          {!Autoscale}.  The loop also fast-forwards a shard's open
          breakers after a window with no device failures.
          [Autoscale.disabled] pins every shard at [base.servers] and
          leaves breakers to their full cooldown. *)
  decay : int;
      (** affinity cost-table horizon in telemetry windows: per-window
          observed minima older than this expire, aging unvisited
          devices back toward "unmeasured" (cost 0) so nonstationary
          traffic re-explores; 0 keeps the all-time minima *)
}

val weight_of : config -> string -> int
(** The tenant's fair-admission weight (>= 1; unknown tenants weigh 1). *)

val content_key : knobs:Openmp.Offload.knobs -> Request.spec -> string
(** The engine-free content identity placement and batching key on:
    kernel digest, guardize flag, resolved pass spec.  Unlike
    {!Openmp.Offload.cache_key} it excludes the evaluation engine, so a
    replay places identically under either [OMPSIMD_EVAL]. *)

val make_ring : int -> (int * int) array
val place : (int * int) array -> string -> int
(** The consistent-hash ring: 64 MD5 points per shard, sorted;
    [place ring key] is the shard owning [key]'s clockwise successor
    point.  Exposed for the placement-stability tests. *)

type rq_report = {
  spec : Request.spec;
  shard : int;  (** where the terminal event happened *)
  outcome : Service.outcome;
  attempts : int;
  launches : int;
  batched : int;  (** members of its terminal merged grid; 0 = never ran *)
  stolen : bool;  (** last executed on a foreign shard *)
  start : float;  (** -1 when the request never dispatched *)
  finish : float;
  latency : float;
  compile_ticks : float;
  exec_ticks : float;  (** its own member cycles, not the batch window *)
  cache : Service.cache_status;
      (** the batch leader's status; mates of a miss report [C_join] *)
  checksum : float;
  counters : Gpusim.Counters.t;
      (** its own exact split of the merged report; zeros if it never ran *)
}

type fleet_stats = {
  batches : int;  (** merged-grid launches with >= 2 members *)
  batched_requests : int;  (** members that rode a merged grid *)
  steals : int;
  tenant_evictions : int;  (** queue slots reclaimed by fair admission *)
  memo_hits : int;  (** launches served from the content memo *)
  affinity_moves : int;
      (** first arrivals that device affinity (or a [device=] pin)
          routed off the plain content ring; always 0 on a homogeneous
          fleet *)
}

type result = {
  reports : rq_report list;  (** sorted by request id *)
  metrics : Metrics.t;  (** the fleet-wide aggregate *)
  shard_stats : Metrics.shard_stats list;
  tenant_stats : Metrics.tenant_stats list;
  fleet : fleet_stats;
  telemetry : string;
      (** the windowed JSONL stream (see {!Telemetry}); [""] unless
          [config.telemetry] was set.  Byte-identical across
          [OMPSIMD_EVAL], [OMPSIMD_DOMAINS] and shuffles of the device
          multiset over shard ids. *)
}

val run : config -> ?run:Gpusim.Run.t -> Request.spec list -> result
(** Replay a trace through the fleet under [run]'s launch settings
    (default {!Gpusim.Run.default}), every member launch pinned to its
    {!Batch.nonce_for}.  @raise Invalid_argument on a non-positive shard or
    batch count (and the base config checks). *)

val report_line : rq_report -> string
val report_json : rq_report -> string

val results_json : rq_report list -> string
(** The placement/batch/steal-invariant core of a replay: per request
    its tenant, outcome, launch count, own execution cycles and
    checksum — no timing, no shard assignment.  For configs that lose
    no requests to admission (ample queues, no deadlines) this is
    byte-identical across shard counts and batch limits. *)

val fleet_stats_json : fleet_stats -> string

val snapshot_json : config -> result -> string
(** The full machine-readable snapshot: config, per-request reports,
    per-shard and per-tenant breakdowns, fleet counters, aggregate
    metrics.  Bit-identical across [OMPSIMD_EVAL] and
    [OMPSIMD_DOMAINS], like the classic {!Scheduler} snapshot. *)

val to_text : result -> string
(** Aggregate metrics plus fleet, per-shard and per-tenant lines. *)
