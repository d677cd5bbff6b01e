(** What the socket workloads ({!Net_server}, {!Kv_store},
    {!Window_system}) share, once: fixed-size frames, the two connect
    retry policies, the deadline read, epoll shards with self-pipe
    kicks, and the run boilerplate. *)

(** {1 Frames} *)

val pad : string -> int -> string
(** [pad msg len] is [msg] cut or space-padded to exactly [len] bytes. *)

val is_busy : string -> bool
(** The reply says the server shed the request: it starts "busy". *)

type job = Stop | Work of { fd : Sunos_kernel.Sysdefs.fd; shed : bool }
(** A connection handed to a server's worker pool; a [shed] one is
    answered "busy" with none of the request's work. *)

val conn_dead : exn -> bool
(** The connection is dead: ECONNRESET, EPIPE, or {!read_reply}'s short
    reply. *)

val finish_frame : Sunos_kernel.Sysdefs.fd -> string -> len:int -> unit
(** [finish_frame fd first ~len]: delivery may have split a [len]-byte
    frame whose first bytes are [first]; read the rest. *)

(** {1 Connecting} *)

val connect_retry :
  ?tries:int ->
  refused:(unit -> unit) ->
  string ->
  Sunos_kernel.Sysdefs.fd option
(** The legacy SYN retransmit: each refused connect calls [refused],
    pauses 2 ms and tries again, up to [tries] attempts (default: until
    a listener admits it). *)

val connect_backoff :
  rng:Sunos_sim.Rng.t ->
  limit:int ->
  base_us:int ->
  refused:(unit -> unit) ->
  string ->
  Sunos_kernel.Sysdefs.fd option
(** Bounded retry: refusal [n] (from 0) sleeps [base * 2^min(n,6)] µs
    plus a jitter below [base] drawn from [rng] ([base] is [base_us], at
    least 1); refusal [limit + 1] gives up with [None].  Each refusal
    calls [refused]. *)

(** {1 Reading replies} *)

val deadline_read :
  Sunos_kernel.Sysdefs.fd -> len:int -> deadline:Sunos_sim.Time.t -> string
(** Read up to [len] bytes, returning what arrived by [deadline] or
    before EOF — short if either came first.  Raises ECONNRESET when the
    peer resets. *)

val read_reply :
  Sunos_kernel.Sysdefs.fd -> len:int -> t0:Sunos_sim.Time.t ->
  deadline_us:int -> string
(** One [len]-byte reply to a request sent at [t0]: by
    [t0 + deadline_us] when [deadline_us > 0], else however long it
    takes.  A short reply (deadline passed, or EOF mid-frame) raises an
    exception {!conn_dead} accepts. *)

(** {1 Epoll shards} *)

type shards
(** One epoll instance per shard, each with a self-pipe whose write wakes
    the shard's [epoll_wait]. *)

val open_shards : ?also:Sunos_kernel.Sysdefs.fd -> int -> shards
(** [n] epoll instances, each watching its own self-pipe and [also]
    (a server's listening fd). *)

val ep : shards -> int -> Sunos_kernel.Sysdefs.fd
(** [ep sh s] is shard [s]'s epoll fd. *)

val kick_all : shards -> unit
(** Wake every shard. *)

val take_kick : shards -> int -> Sunos_kernel.Sysdefs.fd -> bool
(** [take_kick sh s fd]: [fd] is shard [s]'s kick pipe, now drained. *)

val close_shards :
  Sunos_kernel.Kernel.t -> shards -> Sunos_kernel.Procfs.epoll_info list
(** Close every shard fd; the result is this process's /proc epoll
    counters, read just before. *)

(** {1 The run} *)

val cold_file :
  Sunos_kernel.Kernel.t -> path:string -> size:int -> Sunos_kernel.Fs.file
(** A backing file of [size] bytes with every page evicted, so reads
    start cold and pay the disk. *)

val finishing : Sunos_sim.Time.t ref -> (unit -> unit) -> unit -> unit
(** [finishing makespan body] runs [body], then raises [makespan] to the
    current time. *)

val per_second : int -> Sunos_sim.Time.span -> float
(** [n] per second of [span]; 0 over an empty span. *)
