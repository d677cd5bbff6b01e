(** The window-system workload from the paper's introduction: "a window
    system can treat each widget as a separate entity", with "one input
    handler and one output handler" per widget — thousands of mostly-idle
    threads, only a few active at any instant.

    Input events arrive from outside the process (a network channel
    standing in for the X wire); a reader thread demultiplexes them to
    the target widget's input handler, which computes and hands off to
    the widget's output handler, which renders and completes the event.

    Runs on any {!Sunos_baselines.Model.S} implementation, which is the
    point: with 2×widgets+1 threads, the M:N architecture pays a couple
    of LWPs, the 1:1 architecture pays one kernel thread per handler. *)

type params = {
  widgets : int;
  events : int;
  mean_interarrival_us : int;  (** Poisson arrivals *)
  seed : int64;
}

val default_params : params

type results = {
  handled : int;
  latency : Sunos_sim.Stats.Hist.t;  (** inject-to-render-complete *)
  makespan : Sunos_sim.Time.span;
  lwps_created : int;  (** kernel threads the process consumed *)
  threads_created : int;
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
(** Boots a fresh machine, runs the workload to completion.  [chaos],
    [trace] and [debrief] as in {!Net_server.run}. *)

val pp_results : Format.formatter -> results -> unit
