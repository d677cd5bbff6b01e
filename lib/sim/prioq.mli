(** Priority-indexed multi-queue with an occupancy bitmask.

    One FIFO bucket per priority level; a bitmask of non-empty buckets
    makes "highest occupied priority" a find-highest-set over a couple of
    words rather than a scan of every level.  Built for run queues: the
    kernel's (160 levels, one queue for every CPU) and the thread
    library's (64 levels, one per process).  Consumers using
    lazy deletion prune stale entries from bucket fronts via
    {!peek_live} or {!take}, keeping every operation O(1) amortized.
    The mask is exact about bucket non-emptiness and conservative about
    liveness (a set bit may cover only stale entries until a prune
    drains them).

    A level's FIFO is allocated at its first push; until then every
    unused level shares one empty FIFO, so creating a queue costs its
    bucket array and mask, not a FIFO per level. *)

type 'a t

val create : levels:int -> 'a t
(** [levels] priority slots, [0 .. levels-1].  Raises [Invalid_argument]
    when [levels <= 0]. *)

val levels : 'a t -> int

val push : 'a t -> int -> 'a -> unit
(** FIFO append at the given priority. *)

val top : 'a t -> int
(** Highest non-empty priority, or [-1] when all buckets are empty. *)

val top_below : 'a t -> int -> int
(** [top_below t p]: highest non-empty priority [<= p], or [-1]. *)

val peek_live : 'a t -> int -> keep:('a -> bool) -> 'a option
(** [peek_live t prio ~keep] discards entries failing [keep] from the
    front of the bucket and returns the first surviving entry (without
    removing it), or [None] if the bucket drains. *)

val drop_front : 'a t -> int -> unit
(** Remove the front entry of the bucket (raises [Queue.Empty] if the
    bucket is empty). *)

val take :
  site:string ->
  obj:int ->
  foot:('a -> int list) ->
  want:int ->
  live:('a -> bool) ->
  'a t ->
  'a option
(** [take ~site ~obj ~foot ~want ~live t] admits one live entry from the
    highest occupied level through {!Schedctl.take} (same arguments, same
    passive and driven behavior): dead entries at the level's front are
    dropped, and a level that held only dead entries is left empty and
    the search moves down a level.  [None] when no level has a live
    entry.  Allocates no closure of its own. *)

val live_entries : 'a t -> int -> keep:('a -> bool) -> 'a list
(** All entries of the bucket passing [keep], front first, without
    mutating the queue.  For a consumer that cannot simply take the
    front (a schedule driver, a CPU passing over an LWP bound
    elsewhere); O(bucket). *)

val remove : 'a t -> int -> 'a -> bool
(** Remove the first physically-equal occurrence of the entry from the
    bucket; returns whether one was found.  The companion of
    {!live_entries}; O(bucket). *)

val length : 'a t -> int
(** Total queued entries, including stale ones not yet pruned; O(1). *)

val is_empty : 'a t -> bool
(** [length t = 0]. *)
