(* Deterministic fault injection ("chaos").

   A [t] is a fault schedule: a profile of per-site rates plus a private
   splitmix64 stream derived from — but independent of — the workload
   seed.  Call sites in the kernel ask [fire] at existing decision
   points (sleep arming, SYN admission, dispatch, park, ...); the answer
   is a pure function of (seed, profile, call sequence), so the same
   (seed, profile) pair replays a bit-identical fault schedule, and a
   disabled generator never draws from the stream at all — chaos off is
   provably inert.

   Policy-free by design: this module decides *whether* a fault fires
   and records that it did; the kernel decides what the fault *means*
   (which errno, which event to reschedule).  Mirrors the Cost_model
   pattern: a flat record of knobs with canned presets. *)

type profile = {
  label : string;
  (* syscall-level *)
  eintr_sleep : float;   (* early EINTR on an armed nanosleep *)
  eagain_sock : float;   (* spurious EAGAIN on non-blocking socket ops *)
  enomem_lwp : float;    (* ENOMEM on LWP creation *)
  (* socket-level *)
  conn_refuse : float;   (* refuse a connect at SYN arrival *)
  backlog_drop : float;  (* drop an admitted conn before accept (overflow) *)
  conn_rst : float;      (* mid-stream RST on an established conn *)
  peer_stall : float;    (* peer stops draining for a while *)
  stall_us : int;        (* ceiling on the stall duration *)
  (* scheduling *)
  preempt_storm : float; (* dispatch with a storm-shrunken quantum *)
  lwp_reap : float;      (* kill an idle-parking pool LWP *)
  (* process-level *)
  proc_kill : float;     (* kill a forked process at a syscall boundary *)
  (* timing *)
  fault_spike : float;   (* latency spike on a page-fault disk transfer *)
  spike_factor : int;    (* transfer-size multiplier during a spike *)
  timer_jitter : float;  (* late delivery of a real interval timer *)
  jitter_us : int;       (* ceiling on the added delay *)
}

let off =
  {
    label = "off";
    eintr_sleep = 0.;
    eagain_sock = 0.;
    enomem_lwp = 0.;
    conn_refuse = 0.;
    backlog_drop = 0.;
    conn_rst = 0.;
    peer_stall = 0.;
    stall_us = 0;
    preempt_storm = 0.;
    lwp_reap = 0.;
    proc_kill = 0.;
    fault_spike = 0.;
    spike_factor = 1;
    timer_jitter = 0.;
    jitter_us = 0;
  }

let light =
  {
    off with
    label = "light";
    eintr_sleep = 0.10;
    eagain_sock = 0.05;
    enomem_lwp = 0.05;
    conn_refuse = 0.05;
    conn_rst = 0.02;
    peer_stall = 0.02;
    stall_us = 500;
    preempt_storm = 0.05;
    fault_spike = 0.05;
    spike_factor = 4;
    timer_jitter = 0.10;
    jitter_us = 200;
  }

let network_heavy =
  {
    off with
    label = "network-heavy";
    eagain_sock = 0.20;
    conn_refuse = 0.25;
    backlog_drop = 0.10;
    conn_rst = 0.10;
    peer_stall = 0.10;
    stall_us = 2_000;
    eintr_sleep = 0.05;
  }

let scheduler_heavy =
  {
    off with
    label = "scheduler-heavy";
    preempt_storm = 0.40;
    lwp_reap = 0.08;
    enomem_lwp = 0.15;
    eintr_sleep = 0.20;
    fault_spike = 0.10;
    spike_factor = 8;
    timer_jitter = 0.20;
    jitter_us = 500;
  }

let profiles = [ off; light; network_heavy; scheduler_heavy ]

let profile_of_string s =
  let canon =
    String.map (function '_' -> '-' | c -> Char.lowercase_ascii c) s
  in
  List.find_opt (fun p -> p.label = canon) profiles

type t = {
  profile : profile;
  rng : Rng.t;
  enabled : bool;
  counts : (string, int ref) Hashtbl.t;
}

(* The chaos stream must not perturb (or be perturbed by) the machine's
   workload stream: mix the seed with a fixed salt and the profile label
   so that each (seed, profile) pair owns an independent splitmix64
   sequence. *)
let chaos_salt = 0x43A05C4FD1C0FFEEL

let create ~seed profile =
  let mix =
    Int64.logxor
      (Int64.add seed chaos_salt)
      (Int64.of_int (Hashtbl.hash profile.label))
  in
  {
    profile;
    rng = Rng.create ~seed:mix;
    enabled = profile.label <> "off";
    counts = Hashtbl.create 16;
  }

let of_env ~seed () =
  match Sys.getenv_opt "SUNOS_CHAOS" with
  | None | Some "" -> create ~seed off
  | Some s -> (
      match profile_of_string s with
      | Some p -> create ~seed p
      | None ->
          Printf.eprintf
            "SUNOS_CHAOS=%s: unknown profile (try off, light, network-heavy, \
             scheduler-heavy)\n%!"
            s;
          create ~seed off)

let profile t = t.profile
let label t = t.profile.label
let enabled t = t.enabled

let fire t ~site rate =
  (* Disabled or zero-rate sites never touch the stream: chaos=off runs
     are bit-identical to runs with no chaos plumbing at all. *)
  if (not t.enabled) || rate <= 0. then false
  else if Rng.float t.rng 1.0 < rate then begin
    (match Hashtbl.find_opt t.counts site with
    | Some r -> incr r
    | None -> Hashtbl.replace t.counts site (ref 1));
    true
  end
  else false

let draw_us t ~lo ~hi =
  if hi <= lo then lo else lo + Rng.int t.rng (hi - lo + 1)

let draw_span t ~max_span:(m : Time.span) : Time.span =
  if Int64.compare m 1L <= 0 then 1L
  else Int64.add 1L (Int64.unsigned_rem (Rng.int64 t.rng) m)

let count t site =
  match Hashtbl.find_opt t.counts site with Some r -> !r | None -> 0

let counts t =
  Hashtbl.fold (fun site r acc -> (site, !r) :: acc) t.counts []
  |> List.sort compare

let total t = Hashtbl.fold (fun _ r acc -> acc + !r) t.counts 0
