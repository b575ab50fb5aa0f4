(** Simulated global (device) memory.

    Arrays carry both real OCaml storage (so kernels compute real results
    that tests can verify against references) and a base byte address (so
    the coalescing model can reason about lines).  Every device-side access
    goes through a [Thread.t] and is charged to its clock and counters;
    host-side accessors ([host_get] etc.) are free and used for
    initialization and verification only.

    Elements are modelled as 8 bytes (double / 64-bit index) which matches
    the paper's workloads. *)

type space
(** A device's global address space (an address allocator). *)

val space : unit -> space

val space_id : space -> int
(** Process-unique id; keys the sanitizer's shadow memory. *)

val element_bytes : int
(** 8 *)

type farray
type iarray

val falloc : space -> int -> farray
(** Zero-initialized float array of the given length.
    @raise Invalid_argument on negative length. *)

val ialloc : space -> int -> iarray

val of_float_array : space -> float array -> farray
(** Copy host data to a fresh device array. *)

val of_int_array : space -> int array -> iarray

val flength : farray -> int
val ilength : iarray -> int

val space_of_farray : farray -> space
val space_of_iarray : iarray -> space

val l2_reset : space -> unit
(** Cold-start the device-level L2 model.  Benchmark runners call this
    before each kernel launch so that back-to-back runs over the same
    data measure the same thing. *)

(** {2 Per-block L2 sessions}

    The device L2 is the only simulator state shared between thread
    blocks.  {!Device.launch} runs each block in a session, carried on
    the block's warps: L2 lookups hit a private fork of the committed L2
    (its state as of launch start) and the touch sequence is logged.
    The launcher commits all block logs in ascending block_id order
    once every block is done, which makes block simulation
    order-independent — the prerequisite for both multicore fan-out and
    the homogeneous-grid dedup fast path.  Without a session (e.g. a
    bare {!Engine.run_block}) accesses touch the committed L2 directly. *)

val session : locked:bool -> Thread.mem_session
(** A fresh session for one block, to hand to {!Engine.run_block}.
    [locked]: the block's device atomics take the host read-modify-write
    lock (the launch simulates blocks on several domains).  The lock
    costs two futex operations per atomic and never affects results. *)

val session_commit : Thread.mem_session -> unit
(** Replay the session's L2 touches into the committed L2.  Call once
    per session, from a single domain, in ascending block_id order. *)

val line_memo_enabled : bool ref
(** The address→line (coalescing key) computation is memoized per warp
    (small LRU keyed by array base, serving strided re-accesses within a
    line).  The memo is exact — on by default; the flag exists so tests
    can demonstrate counter equality against the unmemoized path. *)

val fget : farray -> Thread.t -> int -> float
(** Device load: charged issue cost, plus a transaction (line bytes +
    latency) when the warp had not touched the line recently.
    @raise Invalid_argument on out-of-bounds. *)

val fset : farray -> Thread.t -> int -> float -> unit
val iget : iarray -> Thread.t -> int -> int
val iset : iarray -> Thread.t -> int -> int -> unit

val atomic_fadd : farray -> Thread.t -> int -> float -> float
(** Atomic read-modify-write add; returns the previous value.  Charged the
    atomic cost plus a contention penalty growing with the number of
    atomics already performed on the same line by this warp since the last
    block-wide barrier. *)

val atomic_fmax : farray -> Thread.t -> int -> float -> float
val atomic_iadd : iarray -> Thread.t -> int -> int -> int

val host_get : farray -> int -> float
(** Cost-free host access (verification / init). *)

val host_set : farray -> int -> float -> unit
val host_geti : iarray -> int -> int
val host_seti : iarray -> int -> int -> unit
val to_float_array : farray -> float array
val to_int_array : iarray -> int array
val fill : farray -> float -> unit
