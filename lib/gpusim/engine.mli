(** Cooperative fiber engine for one thread block.

    Each GPU thread is an OCaml 5 effect fiber.  Fibers run until they
    synchronize; [barrier_wait] performs an effect that parks the fiber in
    the barrier, and a barrier release re-enqueues all participants.  The
    execution order between synchronization points is unspecified — exactly
    like real intra-block concurrency for race-free programs — while
    barrier semantics (max-of-arrival clocks) are exact. *)

exception Deadlock of string
(** Raised when runnable fibers are exhausted but some threads neither
    finished nor can be released — i.e. a barrier is waited on by fewer
    threads than it expects.  The message lists the stuck barriers. *)

type stuck = { stuck_name : string; stuck_waiting : int; stuck_expected : int }
(** One stuck barrier, identified by its display name (ids are
    process-unique atomics whose allocation order depends on the pool
    interleaving; names and waiter counts are deterministic). *)

type stall_info = {
  stall_block : int;
  stall_completed : int;  (** threads that finished *)
  stall_threads : int;
  stall_cycle : float;  (** max thread clock at detection *)
  stall_stuck : stuck list;  (** sorted: a canonical ordering *)
}

val take_stall : unit -> stall_info option
(** The structured companion of the last {!Deadlock} raised on the
    calling domain, stashed just before the raise; reading clears it.
    [Device.launch] consumes it to build a failure report when fault
    capture is armed (see {!Fault.capture_deadlocks}). *)

type block_result = {
  block_id : int;
  num_threads : int;
  critical_cycles : float;  (** max final lane clock: the latency leg *)
  busy_cycles : float;  (** sum of lane busy time: the throughput leg *)
  active_lanes : int;
      (** lanes that executed any work — feeds the issue-efficiency model
          (an underfilled SM cannot retire at full width) *)
  counters : Counters.t;
}

val barrier_wait : Barrier.t -> Thread.t -> unit
(** Suspend the calling fiber until the barrier releases.  Must be called
    from inside [run_block]'s dynamic extent.  Also clears the calling
    warp's atomic-contention epoch: contention is counted between
    consecutive synchronization points only. *)

val run_block :
  cfg:Config.t ->
  ?trace:Trace.t ->
  ?msession:Thread.mem_session ->
  ?fault:Thread.fault_state ->
  ?san:Thread.san_state ->
  block_id:int ->
  num_threads:int ->
  (Thread.t -> unit) ->
  block_result
(** Create [num_threads] fibers (grouped into warps of [cfg.warp_size]),
    run the body in each, and return the block's timing summary.
    [msession], [fault] and [san] (default none) are the launcher's
    per-block state, stamped on every warp ({!Thread.make_warp}).
    @raise Invalid_argument if [num_threads] is not positive or exceeds
    [cfg.max_threads_per_block].
    @raise Deadlock on unreleased barriers. *)
