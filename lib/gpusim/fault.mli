(** Deterministic fault injection and failure capture.

    A fault plan parsed from [OMPSIMD_FAULTS] ("kind=rate" tokens,
    comma separated; kinds [abort], [flip] (optionally [flip=rate:frac]
    with [frac] the fatal fraction), [stall], [exhaust]) and seeded by
    [OMPSIMD_FAULT_SEED], carried by a {!Run}.  Every decision is drawn
    at block start from (plan seed, launch nonce, block_id), so injected
    faults are bit-identical across pool widths and both eval engines.
    The nonce counts the run's armed launches: a relaunch draws fresh
    faults and a fresh run replays the identical sequence.

    Arming a plan (even all-zero) or a positive watchdog budget also
    switches {!Device.launch} from raising {!Engine.Deadlock} to
    reporting hung blocks as structured {!failure}s.  Without a plan
    every hook is one load-and-branch on {!Thread.faults} and reports
    are bit-identical to a build without this module.  An armed plan
    moves timings even at all-zero rates: simd lockstep loops then take
    the classic path ([Omprt.Workshare.simd_loop]): the same work, in
    another lane order (see there). *)

type kind =
  | Block_abort  (** injected asynchronous block abort *)
  | Ecc_fatal  (** uncorrectable bit flip *)
  | Barrier_stall  (** a thread parked forever short of a rendezvous *)
  | Watchdog  (** block exceeded the cycle budget *)

val kind_label : kind -> string

type failure = {
  f_kind : kind;
  f_block : int;
  f_warp : int;  (** -1 when not warp-specific *)
  f_tid : int;  (** -1 when not thread-specific *)
  f_barrier : string;
      (** display name(s) of the involved barrier(s); "" when none.
          Deliberately the {e name}, not {!Barrier.id}: ids are
          process-unique atomics whose allocation order depends on the
          pool interleaving, names are deterministic. *)
  f_cycle : float;
}

val failure_to_string : failure -> string
(** Deterministic one-line rendering (used by reports and tests). *)

type stats = {
  corrected : int;  (** ECC-correctable flips, repaired in place *)
  fatal : int;  (** injected aborts + uncorrectable flips *)
  stalls : int;  (** barrier-stall failures (injected or genuine) *)
  exhausts : int;  (** sharing acquires forced onto the global fallback *)
  watchdogs : int;  (** blocks over the run's watchdog budget *)
}

val zero_stats : stats
val add_stats : stats -> stats -> stats

type events = {
  ev_corrected : int;
  ev_exhausts : int;
  ev_stall : failure option;  (** the injected stall, when one fired *)
}

val no_events : events

exception Fatal of failure
(** Raised by {!on_access} inside the victim thread's fiber; caught by
    [Device.simulate_block] and turned into a failed block. *)

type plan
(** A parsed fault plan: per-kind rates plus the seed. *)

val parse_spec : seed:int -> string -> plan
(** Parse an [OMPSIMD_FAULTS] spec under [seed].  A blank spec is a
    valid all-zero plan: armed, injecting nothing.
    @raise Invalid_argument on a malformed spec, naming
    [OMPSIMD_FAULTS]. *)

val block_begin :
  plan ->
  nonce:int ->
  block_id:int ->
  num_threads:int ->
  warp_size:int ->
  Thread.fault_state
(** Draw this block's fault decisions from (plan seed, [nonce],
    [block_id]): the state {!Engine.run_block} stamps on the block's
    warps, where the hooks below find it. *)

val block_end : Thread.fault_state -> events
(** What fired in the block ({!no_events} for {!Thread.No_faults}). *)

val on_access : Thread.t -> unit
(** Global-access tap: aborts/flips fire at the victim's first access at
    or after the drawn trigger cycle.  @raise Fatal on a fatal fault. *)

val stall_here : Thread.t -> abandoned:Barrier.t -> Barrier.t option
(** Barrier-arrival tap: [Some b] directs the arriving thread to park on
    the never-completing barrier [b] instead of [abandoned]. *)

val exhaust_here : Thread.t -> bool
(** Sharing-space tap: [true] forces the global-memory fallback. *)
