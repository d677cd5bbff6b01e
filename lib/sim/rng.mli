(** Deterministic pseudo-random numbers (splitmix64).

    Every stochastic choice in the simulator (workload arrival jitter,
    tie-breaking policies under test, fault injection) draws from an
    explicitly seeded [Rng.t], so a run is a pure function of its seeds. *)

type t

val create : seed:int64 -> t

val split : t -> t
(** An independent stream derived from the current state; advancing one
    stream never perturbs the other. *)

val int64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).  [bound] must be positive. *)

val float : t -> float -> float
(** [float t x] is uniform in [0, x). *)

val bool : t -> bool

val exponential : t -> mean:float -> float
(** Exponentially distributed, for Poisson arrival processes. *)

val pick : t -> 'a array -> 'a
(** Uniform element of a non-empty array. *)

val shuffle : t -> 'a array -> unit
(** In-place Fisher-Yates shuffle. *)
