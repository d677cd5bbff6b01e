(** Log-bucketed latency histogram: constant-size, mergeable, allocation-free
    on the record path.

    {!Stats.Hist} keeps a sample reservoir — fine for a few thousand
    samples, but at 100k+ connections the reservoir either thins out
    (losing the tail) or dominates minor allocation.  This histogram
    instead keeps fixed power-of-two buckets with 64 linear subbuckets
    each (HdrHistogram-style): values 0..63 are exact, above that the
    relative bucket error is < 1/64 (~1.6%), which is far below
    scheduling noise for latency percentiles.

    Buckets are plain [int array] counters, so {!add} allocates nothing
    and two histograms recorded by different poller shards {!merge}
    exactly (elementwise add) — the merged percentiles are identical to
    recording into one histogram, which a reservoir cannot promise. *)

type t

val create : string -> t
(** All buckets zero.  The bucket array is ~3.7k ints (one-time). *)

val add : t -> Time.span -> unit
(** Record one value (negative values clamp to 0).  O(1), no allocation. *)

val count : t -> int
val mean : t -> float
(** [nan] when empty. *)

val min : t -> Time.span
(** Exact (tracked outside the buckets).  Undefined when empty. *)

val max : t -> Time.span
(** Exact (tracked outside the buckets).  Undefined when empty. *)

val percentile : t -> float -> Time.span
(** [percentile t p] for p in [0,1]: an upper bound on the p-quantile,
    exact below 64 and within 1/64 relative error above, clamped to the
    observed {!max}.  Monotone in [p].  Raises [Invalid_argument] when
    empty or [p] out of range. *)

val merge : into:t -> t -> unit
(** Elementwise-add [src] into [into]; equivalent to having recorded
    every sample of both into [into]. *)

val pp_summary : Format.formatter -> t -> unit
(** One line: n, mean, p50/p95/p99, max — the server-scaling figure
    row format. *)
