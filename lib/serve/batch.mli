(** The merged-grid launch: compile once, run every member, split the
    report per member.

    A batch is a leader and up to [batch - 1] queue mates with the same
    content identity and launch geometry.  Requests share no simulator
    state (each instantiates its own memory space), so each member's
    counters, checksum and injected-fault stats are computed exactly:
    splitting the merged report is lossless by construction.  The batch
    pays one compile charge and a merged execution window of the
    slowest member plus {!merge_overhead} per extra member.

    Every member launch pins its {!Gpusim.Fault} nonce to (request id,
    launches so far), so the faults a request draws are a pure function
    of the plan and the request — never of placement, batch shape or
    dispatch order.

    Repeated identical requests (same template, size, geometry, data
    seed, device) are idempotent, so with faults disarmed the launch
    results are memoized by content: the memo changes no report byte,
    only host time, and it is bypassed while a fault plan is armed
    (relaunches must draw fresh faults).  A failed result is memoized
    too: with no plan armed, failure is as deterministic as success. *)

type member = {
  m_pending : Admission.pending;  (** [launches] includes this launch *)
  m_exec : float;  (** its own simulated device cycles; 0 when hung *)
  m_failed : bool;
  m_checksum : float;
  m_grid : int;
  m_counters : Gpusim.Counters.t;
  m_faults : Gpusim.Fault.stats;
}

type launch = {
  members : member list;  (** dispatch order: leader first *)
  cache : Service.cache_status;  (** the leader's lookup *)
  compile : float;  (** compile charge, or the wait on a joined compile *)
  window : float;  (** the merged execution window *)
}

type t

val create : Service.config -> memo:bool -> run:Gpusim.Run.t -> t
(** A fleet-wide launcher over the config's compile cache and knobs,
    launching under [run]'s settings. *)

val content_key : knobs:Openmp.Offload.knobs -> Request.spec -> string
(** The engine-free content identity: kernel digest, guardize flag,
    resolved pass spec. *)

val pending : t -> Request.spec -> Admission.pending
(** A first arrival's record.  Its keys are built once per distinct
    (template, size, guardize) from one IR build and one digest; the
    call that builds them keeps the IR in the record for the first
    launch. *)

val launch :
  t -> now:float -> Gpusim.Config.t -> Admission.pending list -> launch option
(** Compile the leader's kernel (fleet-wide cache with a virtual
    single-flight window) and launch every member on the device; [None]
    when the kernel does not compile. *)

val memo_hits : t -> int
val cache_evictions : t -> int

val merge_overhead : float
(** Virtual cycles added to a merged grid's window per extra member. *)

val nonce_for : Request.spec -> launches:int -> int
(** The pinned fault nonce of a member launch: a pure function of
    (request id, prior launches). *)
