(** Deterministic fault injection ("chaos").

    A fault generator couples a profile — a flat record of per-site
    fault rates, in the style of {!Cost_model} — with a private
    {!Rng} stream derived from, but independent of, the workload seed.
    Kernel decision points ask {!fire} whether a fault should trigger;
    the answer is a pure function of [(seed, profile, call sequence)],
    so equal seeds and profiles replay bit-identical fault schedules.

    A disabled generator (profile {!off}, or any zero-rate site) never
    draws from the stream, so chaos-off runs are byte-identical to runs
    without any chaos plumbing. *)

type profile = {
  label : string;
  eintr_sleep : float;   (** early EINTR on an armed nanosleep *)
  eagain_sock : float;   (** spurious EAGAIN on non-blocking socket ops *)
  enomem_lwp : float;    (** ENOMEM on LWP creation *)
  conn_refuse : float;   (** refuse a connect at SYN arrival *)
  backlog_drop : float;  (** drop an admitted conn before accept *)
  conn_rst : float;      (** mid-stream RST on an established conn *)
  peer_stall : float;    (** peer stops draining for a while *)
  stall_us : int;        (** ceiling on the stall duration, µs *)
  preempt_storm : float; (** dispatch with a storm-shrunken quantum *)
  lwp_reap : float;      (** kill an idle-parking pool LWP *)
  proc_kill : float;     (** kill a forked process at a syscall boundary *)
  fault_spike : float;   (** latency spike on a page-fault transfer *)
  spike_factor : int;    (** transfer-size multiplier during a spike *)
  timer_jitter : float;  (** late delivery of a real interval timer *)
  jitter_us : int;       (** ceiling on the added delay, µs *)
}

val off : profile
val light : profile
val network_heavy : profile
val scheduler_heavy : profile

val profiles : profile list
(** All canned profiles, [off] first. *)

val profile_of_string : string -> profile option
(** Case-insensitive; underscores accepted for dashes. *)

type t

val create : seed:int64 -> profile -> t
(** The generator's stream is seeded from a salted mix of [seed] and the
    profile label: independent of the machine's own {!Rng} stream. *)

val of_env : seed:int64 -> unit -> t
(** Profile from [SUNOS_CHAOS] (off when unset/unknown, with a warning
    on stderr for unknown names). *)

val profile : t -> profile
val label : t -> string
val enabled : t -> bool

val fire : t -> site:string -> float -> bool
(** [fire t ~site rate] rolls the site's fault.  Counts the hit under
    [site].  Never draws when disabled or when [rate <= 0]. *)

val draw_us : t -> lo:int -> hi:int -> int
(** Uniform µs draw for fault parameters (stall length, jitter). *)

val draw_span : t -> max_span:Time.span -> Time.span
(** Uniform span in [1, max_span] nanoseconds. *)

val count : t -> string -> int
val counts : t -> (string * int) list
(** Per-site hit counts, sorted by site name. *)

val total : t -> int
