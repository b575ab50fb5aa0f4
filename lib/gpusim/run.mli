(** Launch settings as a value: the pool, the fault plan (with its
    seed), the watchdog budget and the sanitizer switch, plus what
    belongs to a run rather than the process — the fault nonce and the
    sanitizer's collector for aborted blocks.  Two runs with different
    settings can share one process, even on two domains at once. *)

type t = private {
  pool : Pool.t option;
  faults : Fault.plan option;  (** [Some] arms fault injection *)
  watchdog : float;  (** per-block cycle budget; 0 = off *)
  sanitize : bool;
  nonce : int Atomic.t;  (** armed launches so far *)
  aborted : Ompsan.aborted;  (** see {!Ompsan.take_aborted} *)
}

val make :
  ?pool:Pool.t -> ?faults:Fault.plan -> ?watchdog:float -> ?sanitize:bool ->
  unit -> t
(** A fresh run (nonce 0); by default sequential and disarmed. *)

val default : t
(** [make ()]: never armed or sanitized, so sharing it shares nothing. *)

val armed : t -> bool
(** A fault plan is set, even an all-zero one. *)

val capture_deadlocks : t -> bool
(** An armed plan or a positive watchdog budget: {!Device.launch}
    reports deadlocks as structured failures instead of raising. *)

val pin : t -> int -> t
(** [pin run n] is [run] whose next armed launch draws at nonce [n];
    [run] is untouched.  The fleet pins each member launch to (request,
    attempt), so placement and batching never change what it draws. *)

val next_nonce : t -> int
(** Called once per armed launch: the nonce its blocks draw from. *)
