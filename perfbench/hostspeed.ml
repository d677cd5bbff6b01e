(* Host speed.  On a shared machine the host's speed can change by up to
   2x between runs, in spells that last seconds, and the simulator and
   other CPU-bound code slow down together.  So every host time the
   benchmark reports is normalised: [calibrate] times a fixed loop made of
   the operations the engine is built from (effect round trips,
   hash-table and map updates, short-lived allocation and the odd large
   block), using the standard library only, so that no change to the
   simulator moves it.  A time t measured while the loop took p seconds
   is reported as [t *. reference /. p]: what it would have taken at the
   speed at which the loop takes [reference] seconds. *)

let reference = 0.025

module IM = Map.Make (Int)

type _ Effect.t += Tick : unit Effect.t
type step = Done | Yield of (unit, step) Effect.Deep.continuation

let ticks = 60_000

let fiber () =
  for _ = 1 to ticks do
    Effect.perform Tick
  done

let start () =
  Effect.Deep.match_with fiber ()
    {
      retc = (fun () -> Done);
      exnc = raise;
      effc =
        (fun (type a) (e : a Effect.t) ->
          match e with
          | Tick -> Some (fun (k : (a, step) Effect.Deep.continuation) -> Yield k)
          | _ -> None);
    }

let calibrate () =
  let t0 = Unix.gettimeofday () in
  let h = Hashtbl.create 4096 in
  let m = ref IM.empty and recent = ref [] and block = ref [||] and j = ref 0 in
  let rec drive = function
    | Done -> ()
    | Yield k ->
        incr j;
        let key = !j * 7919 land 4095 in
        Hashtbl.replace h key !j;
        m := IM.add key !recent !m;
        recent := if !j land 31 = 0 then [] else !j :: !recent;
        (* now and then a large block, as a machine boot allocates *)
        if !j land 1023 = 0 then block := Array.make 16384 !j;
        drive (Effect.Deep.continue k ())
  in
  drive (start ());
  ignore (Sys.opaque_identity (Hashtbl.length h + IM.cardinal !m + Array.length !block));
  Unix.gettimeofday () -. t0

(* [scale p t]: [t] at reference speed, given a calibration time [p]
   taken next to it. *)
let scale p t = t *. reference /. p
