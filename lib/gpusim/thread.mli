(** Per-thread (per-lane) execution context.

    Every simulated GPU thread carries a virtual clock.  Compute and memory
    costs advance the clock directly — no scheduler round-trip — so only
    synchronization suspends a fiber.  [clock] is the latency leg of the
    roofline (critical path); [busy] excludes barrier wait and feeds the
    throughput leg. *)

(** Per-warp slots for the layers above, each extensible so the layer
    adds its own constructor: the engine's scheduler (set by
    [Engine.run_block], reset to {!No_sched} when it returns), and the
    per-block state the launcher creates and {!make_warp} stamps — the
    memory system's L2 session, the fault injector's draws and the
    sanitizer's shadow state.  [No_*] means none for this block, so the
    hot-path taps test a field at hand, never a process-wide switch. *)

type engine_sched = ..
type engine_sched += No_sched
type mem_session = ..
type mem_session += No_session
type fault_state = ..
type fault_state += No_faults
type san_state = ..
type san_state += No_san

type warp_state = {
  warp_index : int;
  lines : Linebuf.t;  (** coalescing window shared by the warp's lanes *)
  msession : mem_session;
  fault : fault_state;
  san : san_state;
  mutable esched : engine_sched;
  mutable ae_keys : int array;
  mutable ae_gen : int array;
  mutable ae_cnt : int array;
  mutable ae_mask : int;
  mutable ae_filled : int;
      (** atomics per line since the last sync point (models RMW
          serialization contention), as an open-addressing table keyed
          by line+1 (0 = empty); entries are valid only while their
          [ae_gen] slot matches [atomic_gen], so bumping the generation
          at a barrier clears the table in O(1) *)
  mutable atomic_gen : int;
  memo_base : int array;
  memo_lo : int array;
  memo_line : int array;
  mutable memo_next : int;
      (** small LRU memoizing the address→line (coalescing key)
          computation for strided re-accesses; see {!Memory} *)
}

type state = {
  mutable clock : float;
  mutable busy : float;
  mutable simt_factor : float;
}
(** Timing state, nested in an all-float record so mutating it on the
    per-instruction hot path does not allocate.  [simt_factor] is the
    issue-slot inflation for divergent execution: a warp instruction
    occupies the whole warp's issue slots no matter how many lanes are
    active, so a thread running code that only 1-in-N of its warp's
    lanes executes (a SIMD main in a generic region, the team main
    alone in its warp) is charged N lane-cycles of throughput per cycle
    of latency.  1.0 when the warp is fully converged. *)

type t = {
  block_id : int;
  tid : int;  (** thread index within the block *)
  lane : int;  (** [tid mod warp_size] *)
  warp : warp_state;
  cfg : Config.t;
  counters : Counters.t;
  trace : Trace.t option;
  st : state;
}

val make_warp :
  cfg:Config.t -> warp_index:int -> msession:mem_session ->
  fault:fault_state -> san:san_state -> warp_state

val ae_bump : warp_state -> int -> int
(** [ae_bump w line] counts an atomic to [line] in the current epoch and
    returns how many the warp had already issued to that line since the
    last sync point (0 for the first). *)

val create :
  cfg:Config.t ->
  counters:Counters.t ->
  ?trace:Trace.t ->
  block_id:int ->
  tid:int ->
  warp:warp_state ->
  unit ->
  t

val clock : t -> float
(** Current virtual time (latency leg). *)

val faults : t -> bool
val sanitize : t -> bool
(** Whether the block has fault state / sanitizer state: the gates of
    the {!Fault} and {!Ompsan} taps. *)

val busy : t -> float
(** Issue work so far (throughput leg; excludes barrier wait). *)

val simt_factor : t -> float
(** Current divergence factor. *)

val tick : t -> float -> unit
(** Advance clock and busy time by a compute cost; the busy (throughput)
    charge is scaled by [simt_factor]. *)

val with_simt_factor : t -> float -> (unit -> 'a) -> 'a
(** Run a section under a given divergence factor, restoring the previous
    factor afterwards (exception-safe).
    @raise Invalid_argument if the factor is < 1. *)

val set_simt_factor : t -> float -> unit
(** Raw, unchecked divergence-factor store, for hand-inlined
    save/restore on hot paths where the [with_simt_factor] thunk would
    force the accumulator into a heap cell.  Callers own the restore;
    an exception between set and restore leaves the factor dirty (the
    runtime only does this where an exception aborts the whole
    simulation anyway). *)

val tick_wait : t -> float -> unit
(** Advance the clock only (stall, not issuing work). *)

val align_clock : t -> float -> unit
(** Raise the clock to at least the given time (barrier release). *)

val tracing : t -> bool
(** Whether tracing is on — guard for callers whose event detail is
    costly to format (the formatting would otherwise run even when
    [trace] discards it). *)

val trace : t -> tag:string -> string -> unit
(** Record an event against this thread's clock if tracing is on. *)
