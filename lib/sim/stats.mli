(** Measurement plumbing: duration histograms.

    Benchmarks report simulated-time distributions, so the histogram
    stores exact nanosecond samples (capped reservoir) alongside streaming
    aggregates — exact percentiles matter more than memory here. *)

module Hist : sig
  type t

  val create : ?capacity:int -> string -> t
  (** [capacity] bounds the stored samples (default 100_000); past it, a
      deterministic every-k-th decimation keeps the reservoir bounded. *)

  val add : t -> Time.span -> unit
  val count : t -> int
  val mean : t -> float
  (** In nanoseconds; [nan] when empty. *)

  val min : t -> Time.span
  val max : t -> Time.span
  val percentile : t -> float -> Time.span
  (** [percentile h 0.99] etc.; raises [Invalid_argument] when empty or
      when the fraction lies outside [0,1]. *)

  val pp_summary : Format.formatter -> t -> unit
  (** One line: name, n, mean, p50, p90, p99, max. *)
end
