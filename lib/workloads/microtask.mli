(** Fortran-style microtasking directly on the LWP interface.

    The paper: "Some languages define concurrency mechanisms that are
    different from threads.  An example is a Fortran compiler that
    provides loop level parallelism.  In such cases, the language library
    may implement its own notion of concurrency using LWPs."

    This module is that language runtime: a DOALL loop whose iterations
    are partitioned over worker contexts, in two builds —
    [`Raw_lwps]: workers are raw kernel LWPs driven with
    `lwp_park`/`lwp_unpark`, no threads library at all;
    [`Threads]: the same loop on bound threads, for comparison. *)

type mode = Raw_lwps | Bound_threads

val iterations : int
(** Iterations per DOALL loop (64). *)

type params = {
  grain_us : int;  (** compute per iteration *)
  workers : int;
  mode : mode;
  doalls : int;  (** how many successive parallel loops (runtime reuse) *)
}

val default_params : params

type results = {
  makespan : Sunos_sim.Time.span;
  iterations_done : int;
  lwps_created : int;
}

val run : ?cpus:int -> ?cost:Sunos_hw.Cost_model.t -> params -> results
val pp_results : Format.formatter -> results -> unit
