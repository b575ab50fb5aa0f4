(** The classic single-device service: a one-shard {!Fleet}.

    {!run} replays a trace through {!Fleet.run} with one shard and every
    fleet feature off — no batching, stealing, memo, device list,
    affinity or autoscaler — and keeps this module's historical report
    and snapshot formats.  Admission is a bounded queue with explicit
    {!Rejected} / {!Shed} outcomes and retry with exponential backoff;
    dispatch is highest-priority-first over [servers] virtual
    executors; deadlines are enforced while queued and at completion.
    A request's service time is its launch's simulated device cycles
    plus a structural compile cost charged once per cache key
    (single-flight: requests dispatched during an in-flight compile pay
    only the residual wait).  Host-side, compilation runs once per key
    through {!Cache}.

    The vocabulary is {!Service}'s and the report is {!Fleet}'s,
    re-exported here by type equation so [Scheduler.*] paths keep
    working.

    Nothing reads the host clock: replaying a trace yields bit-identical
    reports and metrics for any [OMPSIMD_DOMAINS] and either engine. *)

type outcome = Service.outcome =
  | Completed
  | Rejected
  | Shed
  | Shed_slo
  | Timed_out
  | Failed
  | Degraded

val outcome_to_string : outcome -> string

type cache_status = Service.cache_status = C_hit | C_miss | C_join | C_none

val cache_status_to_string : cache_status -> string

type config = Service.config = {
  cfg : Gpusim.Config.t;
  queue_bound : int;
  servers : int;
  cache_capacity : int;
  max_retries : int;
  backoff : float;
  breaker : int;
  slo : float option;
  window : float;
  knobs : Openmp.Offload.knobs;
}

val compile_cost : Ompir.Ir.kernel -> float
(** {!Service.compile_cost}. *)

type rq_report = Fleet.rq_report = {
  spec : Request.spec;
  shard : int;
  outcome : outcome;
  attempts : int;
  launches : int;
  batched : int;
  stolen : bool;
  start : float;
  finish : float;
  latency : float;
  compile_ticks : float;
  exec_ticks : float;
  cache : cache_status;
  checksum : float;
  counters : Gpusim.Counters.t;
}

val run :
  config ->
  ?run:Gpusim.Run.t ->
  Request.spec list ->
  rq_report list * Metrics.t
(** Replay the trace to completion through the one-shard fleet.
    Reports come back in request-id order.  [run] (default
    {!Gpusim.Run.default}) carries the launch settings.

    Device failures (failed blocks under the run's fault plan, an
    over-budget watchdog finding, or an escaped divergence deadlock)
    are retryable: the request is relaunched with exponential backoff —
    reusing the cached compile artifact and bypassing the admission
    bound — until it completes or exhausts [max_retries] launches, when
    it reports {!Degraded}.  Every launch pins its fault nonce to
    (request id, attempt), so the same trace under the same fault seed
    injects the identical faults.

    With [slo] set, arrivals of the lowest priority class (and of a
    tenant over its fair share of the queue) are shed as {!Shed_slo}
    while the previous window's p99 was over the target.

    @raise Invalid_argument on [servers < 1], a negative queue bound,
    a negative breaker threshold or a non-positive window. *)

val report_line : rq_report -> string
(** One fixed-format text line per request (checksum as IEEE bits so
    equality is exact). *)

val report_json : rq_report -> string

val snapshot_json : config -> rq_report list -> Metrics.t -> string
(** The whole replay as JSON: config, per-request reports, metrics.
    Field order and float rendering are fixed, and the engine / pool
    width are deliberately excluded — snapshots from any
    [OMPSIMD_EVAL] x [OMPSIMD_DOMAINS] combination diff clean. *)
