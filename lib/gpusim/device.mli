(** Kernel launcher: ties the fiber engine, shared-memory arenas and the
    occupancy model together.

    Thread blocks only interact through global atomics, so each is
    simulated in isolation — sequentially by default, or fanned out over
    a {!Pool} of host domains — and composed into a kernel time by
    {!Occupancy.kernel_time}.

    {b Determinism contract.}  A launch produces a bit-identical [report]
    whether it ran sequentially, on a pool of any size, or through the
    homogeneous-grid fast path (for a grid whose blocks really are
    uniform): every block simulates against the launch-start L2 snapshot
    (see {!Memory} sessions), and per-block counters, costs and L2 logs
    are combined in ascending block_id order after all blocks finish. *)

type report = {
  cfg : Config.t;
  grid : int;  (** number of blocks launched *)
  block : int;  (** threads per block *)
  time_cycles : float;
  breakdown : Occupancy.breakdown;
  counters : Counters.t;  (** merged over all blocks, ascending block_id *)
  block_costs : Occupancy.block_cost array;
  sanitizer : Ompsan.report option;
      (** [Some] iff the sanitizer was enabled for this launch: findings
          merged in ascending block_id plus cross-block conflicts.  Always
          [None] when disabled — the report stays bit-identical to a build
          without the sanitizer. *)
  failures : Fault.failure list;
      (** Failed blocks in ascending block_id order: injected fatal
          faults, captured barrier stalls (injected or genuine
          divergence, when {!Run.capture_deadlocks} holds), and
          watchdog findings for blocks whose critical path exceeded the
          run's watchdog budget.  A failed block contributes no
          counters, no L2 traffic and a zero cost entry — its failure
          record {e is} its contribution.  Always [[]] when disarmed. *)
  faults : Fault.stats;
      (** Corrected/fatal/stall/exhaust/watchdog totals over the launch
          (per representative under dedup).  {!Fault.zero_stats} when
          disarmed — the report stays bit-identical. *)
}

val launch :
  cfg:Config.t ->
  ?run:Run.t ->
  ?trace:Trace.t ->
  ?block_class:(int -> int) ->
  grid:int ->
  block:int ->
  init:(block_id:int -> Shared.arena -> 'a) ->
  body:('a -> Thread.t -> unit) ->
  unit ->
  report
(** [launch ~cfg ~grid ~block ~init ~body ()] runs [grid] blocks of [block]
    threads.  [init] runs once per block (e.g. building the team state and
    reserving static shared memory); [body] runs in every thread fiber.

    [run] (default {!Run.default}: sequential, disarmed) carries the
    launch settings, read by every block; an armed launch takes the
    run's next fault nonce.  Its pool fans block simulation out across
    domains, bit-identically to the sequential run.  When [trace] is set
    the launch always simulates every block sequentially on the calling
    domain ([Trace.t] is a single shared log).

    [block_class] is the opt-in homogeneous-grid fast path: blocks whose
    keys are equal are declared {e equivalent} (same per-block cost and
    counters), only the lowest block_id of each class is simulated, and
    its cost/counters stand in for the whole class — turning O(grid)
    simulation into O(classes).  The caller is responsible for the
    declaration being true (uniform workloads keyed by e.g. the team's
    chunk length; irregular grids should key by block_id, which disables
    deduplication).  Skipped blocks do not execute, so their global-memory
    writes do not happen and only representative L2 traffic is committed —
    use it to regenerate timing sweeps, not to produce data.

    With fault capture armed (see {!Run.capture_deadlocks}) a block
    that deadlocks or takes a fatal injected fault does not raise — it
    lands in [report.failures].  Disarmed, genuine divergence raises
    {!Engine.Deadlock} exactly as before.
    @raise Invalid_argument on non-positive [grid]/[block] or a block larger
    than the device allows. *)

val pp_report : Format.formatter -> report -> unit
(** Appends a fault section (totals plus one line per failure) only
    when a launch actually armed faults or failed — unarmed report text
    is byte-identical to the pre-fault-layer rendering. *)
