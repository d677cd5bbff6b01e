(** The schedule-control seam: tie-break points in the engine consult
    it.  Wait-queue admission, the user-level run-queue pick and futex
    wakeup order all pop a lazily-pruned FIFO through {!take}; CPU
    dispatch within a priority enumerates its candidates and calls
    {!choose}.  Passive mode (no driver) always takes candidate 0, the
    engine's own default, pinned by the determinism goldens.  A driver
    installed by {!begin_run} replays a recorded choice vector and logs
    every decision for the explorer. *)

type decision = {
  d_site : string;
  d_obj : int;
  d_arity : int;
  d_choice : int;
  d_foot : int list array;
      (** per-candidate sync-object footprints ([[||]] or empty lists
          when unreported); the explorer prunes alternatives whose
          footprint is disjoint from the taken candidate's *)
}

val active : unit -> bool
(** One ref load; the dispatcher gates its candidate enumeration on
    this. *)

val choose : site:string -> obj:int -> ?foot:(int -> int list) -> int -> int
(** [choose ~site ~obj ~foot n] picks a candidate index in [0, n).
    Passive: 0.  Driven: the vector's prescription for this position, or
    0 beyond the vector.  Single-candidate decisions are not recorded. *)

val take :
  site:string ->
  obj:int ->
  foot:('a -> int list) ->
  want:int ->
  live:('a -> bool) ->
  'a Queue.t ->
  'a option
(** [take ~site ~obj ~foot ~want ~live q] pops one live entry of a FIFO
    whose entries die lazily.  It first drops the dead entries at the
    front.  Passive, or when the caller [want]s at least as many entries
    as are live, it takes the front.  Driven with more live entries than
    [want], the driver chooses among the live entries in queue order
    (candidate 0 is the front, [foot] gives each one's footprint) and
    the chosen entry is removed from wherever it sits.  [None] when no
    live entry remains. *)

val remove : 'a Queue.t -> 'a -> bool
(** Remove the first entry physically equal to the given one, keeping
    the rest in order; whether one was found.  O(length). *)

val begin_run : vector:int array -> unit
(** Install a driver for one run.  Raises if one is already installed. *)

val end_run : unit -> decision list * string option
(** Harvest the decision log (chronological) and the divergence
    diagnostic, if replay could not honor the vector.  Uninstalls. *)

val abort_run : unit -> unit
(** Uninstall without harvesting (exception cleanup). *)
