(** The parallel-array workload from the paper's "why have both threads
    and LWPs" discussion: rows of an array divided among threads, with a
    barrier between sweeps (a stencil-style computation).

    The paper's argument, reproduced as modes:
    - [Unbound n]: n threads multiplexed on the LWP pool.  With more
      threads than processors, each sweep pays user-level switches for
      nothing — "it would be better to know there is one thread per LWP".
    - [Bound]: one thread per CPU, each permanently bound to its own LWP
      (the paper's recommendation for this shape of program).
    - [Bound_gang]: like [Bound], in the gang scheduling class — the
      members dispatch together, which matters when the machine is shared
      with other work. *)

type mode = Unbound of int | Bound | Bound_gang

val row_compute_us : int
(** Compute per row and sweep, in microseconds (400). *)

type params = {
  rows : int;
  sweeps : int;
  mode : mode;
  spin_barrier : bool;
      (** spin (burn CPU) at the sweep barrier instead of blocking —
          typical of fine-grain parallel runtimes, and the case where
          gang scheduling pays: without co-scheduling, spinners burn
          their processors waiting for a preempted member *)
}

val default_params : params

type results = {
  makespan : Sunos_sim.Time.span;
  thread_switches : int;  (** user-level context switches consumed *)
  lwps_created : int;
}

val run :
  ?cpus:int ->
  ?cost:Sunos_hw.Cost_model.t ->
  ?chaos:Sunos_sim.Faultgen.profile ->
  ?background_load:bool ->
  params ->
  results
(** [chaos] as in {!Net_server.run}.  [background_load] adds a
    competing CPU-bound process (for the gang ablation). *)

val pp_results : Format.formatter -> results -> unit
