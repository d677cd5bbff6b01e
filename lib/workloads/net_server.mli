(** The network-server workload from the paper's introduction, rebuilt
    as a proper event-driven server over the kernel socket subsystem.

    Two server architectures share the protocol.  The legacy server
    (the default) runs an acceptor thread, a poller thread that rebuilds
    and rescans the whole [poll] set on every wakeup — O(connections)
    per event — and a fixed worker pool fed through a mutex-protected
    queue.  With [epoll] set, the server shards into [pollers]
    independent acceptor/poller LWPs, each owning a private epoll
    instance, self-pipe and preallocated integer work ring with its
    slice of the worker pool: readiness arrives as edge-triggered
    events pushed by the kernel at state transitions, per-wakeup work
    is O(ready), per-connection state is one ONESHOT interest entry
    (no closures, threads or lists per connection), and there is no
    central lock.

    Two load generators, also sharing the protocol.  The closed-loop
    generator (default) runs a thread per connection issuing
    synchronous request/reply rounds with exponential think time —
    faithful to the paper, but its arrival rate slows with the server
    (coordinated omission).  With [open_loop] set, a single sender
    issues Poisson arrivals at a fixed offered rate onto pre-opened
    connections (compact timestamp-ring records, [max_pending] deep)
    and [pollers] reader shards collect replies via client-side epoll;
    latency is recorded in per-shard mergeable log-bucketed histograms
    ({!Sunos_sim.Histogram}).

    Each request costs parse CPU, a file read (cold every
    [disk_every]-th request, hitting the disk), reply CPU, and the
    reply write — which can block on socket backpressure when the
    client is slow.

    Hardening, for runs under fault injection ({!Sunos_sim.Faultgen}),
    is the values of three parameters, each 0 (the default) for the
    legacy behaviour: [connect_retry_limit] bounds the clients' connect
    retries (exponential backoff with deterministic jitter),
    [request_deadline_us] abandons a request past its deadline instead
    of waiting forever, and [shed_queue_limit] makes the server shed
    load with cheap "busy" replies (recorded where /proc can see them).
    In every configuration clients walk away from reset connections and
    short replies, and the server retires connections that die
    mid-request.  Every request is accounted for:
    [served + shed + aborted = issued = connections * requests_per_conn].

    Runs on any {!Sunos_baselines.Model.S}: M:N serves cheap concurrency
    with a few LWPs; the user-level-only model stalls the whole server
    on every cold read; 1:1 pays an LWP per thread on both sides. *)

type params = {
  connections : int;  (** concurrent client connections *)
  requests_per_conn : int;
      (** closed loop: synchronous rounds per connection; open loop:
          multiplier for the total arrival count *)
  parse_compute_us : int;
  reply_compute_us : int;
  think_time_us : int;  (** mean client think time between requests *)
  connect_stagger_us : int;
      (** arrival ramp: client [i] delays its connect by [i * this] *)
  compute_steps : int;
      (** compute-phase granularity: 1 charges parse/reply each as one
          span; > 1 models a tokenizing parser — the span is split into
          that many charges, each preceded by a shared stats-counter
          bump under an uncontended process mutex (cheap user-level
          sync on the hot path).  Total charged time is unchanged. *)
  disk_every : int;  (** every n-th request needs a cold file read *)
  workers : int;  (** server worker-pool size (split across shards) *)
  concurrency : int;  (** server LWP-pool hint *)
  client_concurrency : int;
      (** load-generator LWP-pool hint (0 = same as [concurrency] for
          the closed loop; readers + connectors + 2 for the open loop).
          A closed-loop client thread holds an LWP while sleeping or
          awaiting a reply, so modelling [connections] truly
          independent clients needs a pool that size. *)
  listen_backlog : int;
  connect_retry_limit : int;
      (** > 0: a refused connect backs off and is retried at most this
          many times before the client gives up; 0 (default): the legacy
          retry, every 2 ms until admitted *)
  retry_base_us : int;
      (** backoff base, in µs: refusal [n] sleeps
          [base * 2^min(n,6) + jitter(base)] *)
  request_deadline_us : int;
      (** closed loop, > 0: a client abandons its connection when a reply
          misses this deadline; 0 (default): wait forever *)
  shed_queue_limit : int;
      (** > 0: the server sheds new requests once its dispatch queue
          (ring, per shard when [epoll]) is this deep; 0 (default): never
          shed *)
  epoll : bool;
      (** server uses sharded edge-triggered epoll readiness instead of
          the central poll scan; off (the default) is byte-identical to
          the legacy server *)
  pollers : int;
      (** shard count: server acceptor/poller LWPs when [epoll], and
          client reader LWPs when [open_loop] *)
  open_loop : bool;
      (** replace the closed-loop generator with Poisson arrivals at a
          fixed offered rate (client always uses epoll readers) *)
  arrival_rate_rps : float;
      (** open loop: offered request rate; 0 (default) derives the rate
          [connections / think_time] an ideal closed loop would offer *)
  max_pending : int;
      (** open loop: per-connection pipeline depth — an arrival finding
          every connection at this depth is aborted (client-side shed) *)
  drain_grace_us : int;
      (** open loop: how long after the last arrival to wait for
          straggler replies before counting them aborted *)
  connectors : int;  (** open loop: connection-establishment threads *)
  seed : int64;
}

val default_params : params

(** The run bumps its counters in place; callers only read them. *)
type results = private {
  issued : int;  (** total requests offered: connections * requests_per_conn *)
  mutable served : int;  (** complete replies received by clients *)
  mutable shed : int;  (** "busy" replies: server refused the work under load *)
  mutable aborted : int;
      (** requests abandoned: reset, EOF, deadline, give-up, no free
          pipeline slot, or lost to the drain grace *)
  mutable gaveup : int;
      (** connections never admitted within the retry bound *)
  mutable refused : int;  (** connect refusals (each may be retried) *)
  mutable max_concurrent : int;  (** peak simultaneously-accepted connections *)
  latency : Sunos_sim.Histogram.t;
      (** client-side request round trip (log-bucketed; per-shard
          histograms merged when [open_loop]) *)
  makespan : Sunos_sim.Time.span;
  throughput_rps : float;
  lwps_created : int;
  syscalls : int;
  mutable epoll_stats : Sunos_kernel.Procfs.epoll_info list;
      (** per-epoll readiness counters snapshotted at teardown (server
          shards first, then client readers); [[]] when neither side
          used epoll *)
}

val run :
  (module Sunos_baselines.Model.S) ->
  ?cpus:int ->
  ?cost:Sunos_hw.Cost_model.t ->
  ?chaos:Sunos_sim.Faultgen.profile ->
  ?trace:bool ->
  ?debrief:(Sunos_kernel.Kernel.t -> unit) ->
  params ->
  results
(** [chaos] selects the kernel's fault-injection profile (default: the
    [SUNOS_CHAOS] environment variable, else off).  [trace] keeps the
    kernel trace ring enabled (default false: workloads run untraced).
    [debrief] runs against the live kernel after the run, before results
    are computed — determinism tests read counters and the trace ring
    through it, and chaos runs report injected-fault counts. *)

val pp_results : Format.formatter -> results -> unit
