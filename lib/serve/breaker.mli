(** One shard's per-key circuit breakers.

    Closed counts consecutive device failures of a cache key; at the
    threshold it opens and every dispatch of that key is shed.  After
    [cooldown] ticks the next dispatch is the single half-open probe:
    success closes the breaker, failure reopens it.  The table is the
    shard's own — a flaky kernel opens its breaker where it runs and
    neighbours keep serving it.  A threshold of 0 disables every
    breaker. *)

type t

val create : threshold:int -> cooldown:float -> t

val admit : t -> string -> now:float -> [ `Admit | `Probe | `Shed ]
(** [`Admit] when closed; [`Probe] when the cooldown has passed (the
    breaker is now probing, and the caller launches the key solo);
    [`Shed] while open or while another probe is in flight. *)

val ok : t -> string -> unit
(** A launch of the key succeeded: reset and close. *)

val fail : t -> string -> now:float -> unit
(** A launch of the key failed: a probe reopens, a closed breaker opens
    at the threshold. *)

val opens : t -> int
(** Transitions into open so far. *)

val open_now : t -> int
(** Breakers not closed (open or probing). *)

val fast_forward : t -> at:float -> int
(** The post-burst all-clear: every breaker still cooling down at [at]
    is moved so that its next dispatch is the half-open probe.  Returns
    how many moved. *)

val forwarded : t -> int
(** Breakers moved by {!fast_forward} so far. *)
