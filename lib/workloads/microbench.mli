(** The paper's measurement microbenchmarks (Figures 5 and 6), and
    ablation A3's mutex contention, as reusable measurements, so the
    benchmark harness prints them and the test suite asserts their
    shape.

    All results are simulated microseconds on the machine's cost model. *)

type creation = { unbound_us : float; bound_us : float }

val creation : ?cost:Sunos_hw.Cost_model.t -> unit -> creation
(** Figure 5: mean creation time with cached default stacks, no first
    context switch; bound creation includes the LWP. *)

type sync = {
  setjmp_us : float;  (** the baseline row (a cost-model constant) *)
  unbound_us : float;
  bound_us : float;
  cross_process_us : float;
}

val sync : ?cost:Sunos_hw.Cost_model.t -> unit -> sync
(** Figure 6: semaphore ping-pong, per-synchronization time (total /
    2 / rounds): unbound pair, bound pair, and two processes through a
    mapped file. *)

type contention = { makespan_ms : float; cpu_ms : float }

val mutex_contention :
  ?cost:Sunos_hw.Cost_model.t ->
  Sunos_threads.Mutex.variant ->
  cs_us:int ->
  contention
(** Ablation A3: three bound threads on two CPUs each take one mutex 50
    times, holding it [cs_us], with staggered starts and short think
    times between, so collisions are constant.  The makespan shows the
    handoff cost; the CPU consumed (user + system, all LWPs) shows what
    spinning burns.  The adaptive variant's spin budget comes from
    [cost]. *)

val spin_budgets : int list
(** The adaptive spin budgets A3 sweeps ([Cost_model.adaptive_spin_limit],
    probes before sleeping), smallest first. *)
