(** One shard's admission queue.

    Entries leave best-first: higher priority, then earlier arrival,
    then lower request id.  When the queue is full, admission is
    per-tenant weighted-fair: the {e hog} is the tenant maximizing
    occupancy over weight (compared by exact integer
    cross-multiplication, ties to the lexicographically greater name).
    A newcomer at least as over-share as the hog, counting its
    prospective slot, is refused; otherwise the hog's newest
    non-relaunched entry is evicted to make room.  Tenant occupancy is
    computed in one place ({!occupancy}) for the hog, the SLO
    over-share test and the fleet's telemetry. *)

type pending = {
  spec : Request.spec;
  attempts : int;  (** admissions; 1 = admitted first try *)
  launches : int;  (** device launches performed *)
  ckey : string;  (** content identity (placement, affinity) *)
  bkey : string;  (** ckey + launch geometry (batching compatibility) *)
  mkey : string;  (** bkey + size + data seed (launch memo) *)
  okey : string;  (** compile-cache key, which is also the breaker key *)
  stolen : bool;  (** executing (or last executed) on a foreign shard *)
  relaunched : bool;  (** recovery re-entry: exempt from bound and eviction *)
  ir : Ompir.Ir.kernel option;
      (** the IR the keys were built from, until the first launch *)
}
(** A request between arrival and its terminal outcome. *)

type t

val create : weight:(string -> int) -> t
(** An empty queue; [weight] gives each tenant's fair-admission weight
    (>= 1). *)

val length : t -> int

val peak : t -> int
(** The deepest the queue has been, not counting pass-through pushes. *)

val better : pending -> pending -> bool
(** The dispatch order: priority, then arrival, then id. *)

val expired : pending -> float -> bool
(** Whether the entry's deadline has passed at this instant. *)

val push : t -> through:bool -> pending -> unit
(** Enqueue.  [through] marks an entry that the next dispatch sweep
    launches at once (empty queue, idle executor): it bypasses the
    bound and does not count toward {!peak}. *)

val pop : t -> pending option
(** Remove and return the best entry. *)

val mates : t -> pending -> now:float -> max:int -> pending list
(** Remove and return up to [max] entries with the leader's [bkey],
    best-first, leaving expired entries behind for their own dispatch
    to time out.  [max = 0] leaves the queue untouched. *)

val occupancy : t list -> (string * int) list
(** Queued entries per tenant over the given queues, sorted by name;
    tenants with no entry are absent. *)

val hog : t -> string option
(** The most over-share tenant; [None] on an empty queue. *)

val over_share : t -> pending -> bool
(** Whether the newcomer's tenant already holds more than its weighted
    share of the queue: occupancy / depth > weight / total weight of
    the queued tenants, cross-multiplied exactly. *)

val contend : t -> pending -> [ `Refuse | `Evict of pending ]
(** The full-queue decision for a newcomer: [`Evict v] removed [v], the
    hog's newest non-relaunched entry, and the caller enqueues the
    newcomer in its place. *)
