(* Layer microbenchmarks: host time of the public calls each engine layer
   is built from, timed from outside.  Each figure is the median of
   [batches] batches of a fixed number of operations, so it does not
   depend on the run length.  Only calls that survive the removal of the
   parallel substrate are used: no shard or domain arguments, and
   [Uctx.step] is matched with a wildcard. *)

module Eventq = Sunos_sim.Eventq
module Pheap = Sunos_sim.Pheap
module Prioq = Sunos_sim.Prioq
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module T = Sunos_threads.Thread
module Libthread = Sunos_threads.Libthread
module Semaphore = Sunos_threads.Semaphore

let batches = 7

let median xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then nan
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Median host ns per operation of [batch], which performs [ops]. *)
let ns_per_op name ~ops batch =
  Span.time name (fun () ->
      median
        (List.init batches (fun _ ->
             let t0 = Span.now () in
             batch ();
             (Span.now () -. t0) *. 1e9 /. float ops)))

(* Queue depth the queue microbenchmarks hold steady: about what the
   server-epoll workload keeps pending. *)
let depth = 1024
let spread j = 1 + (j * 7919 mod (depth * 1000))
let ops = 200_000

let prefilled_eventq () =
  let q = Eventq.create () in
  for j = 1 to depth do
    ignore (Eventq.at q (Int64.of_int (j * 1000)) ignore)
  done;
  q

(* one [after] plus one [run_one]: every fired event is replaced *)
let eventq_schedule_fire () =
  let q = prefilled_eventq () in
  ns_per_op "eventq.schedule_fire" ~ops (fun () ->
      for j = 1 to ops do
        ignore (Eventq.after q (Int64.of_int (spread j)) ignore);
        ignore (Eventq.run_one q)
      done)

(* the poll-timeout pattern: cancel the pending timeout, arm a new one *)
let eventq_cancel_rearm () =
  let q = prefilled_eventq () in
  let timeout = ref (Eventq.after q 1_000_000_000L ignore) in
  ns_per_op "eventq.cancel_rearm" ~ops (fun () ->
      for _ = 1 to ops do
        Eventq.cancel !timeout;
        timeout := Eventq.after q 1_000_000_000L ignore
      done)

let pheap_insert_pop () =
  let h = Pheap.create ~cmp:Int.compare in
  for j = 1 to depth do
    Pheap.insert h (j * 1000)
  done;
  let clock = ref 0 in
  ns_per_op "pheap.insert_pop" ~ops (fun () ->
      for j = 1 to ops do
        Pheap.insert h (!clock + spread j);
        match Pheap.pop_min h with Some t -> clock := t | None -> ()
      done)

(* the dispatcher's pick: push, find the top level, prune, take *)
let prioq_push_pick () =
  let levels = 170 in
  let q = Prioq.create ~levels in
  for j = 1 to depth do
    Prioq.push q (j mod levels) j
  done;
  let keep _ = true in
  ns_per_op "prioq.push_pick" ~ops (fun () ->
      for j = 1 to ops do
        Prioq.push q (j * 37 mod levels) j;
        let top = Prioq.top q in
        match Prioq.peek_live q top ~keep with
        | Some _ -> Prioq.drop_front q top
        | None -> ()
      done)

(* A fiber of [charges] Charge effects, driven by hand: one [run_fiber]
   and one [continue] per charge.  Run before any machine, so no open
   run-ahead grant can absorb the charges. *)
let uctx_effect_roundtrip () =
  let charges = 16 and fibers = ops / 16 in
  let fiber () =
    for _ = 1 to charges do
      Uctx.charge 1L
    done
  in
  let rec drive seen = function
    | Uctx.Step_charge (_, k) -> drive (seen + 1) (Effect.Deep.continue k false)
    | Uctx.Step_done when seen = charges -> ()
    | _ -> failwith "uctx microbenchmark: fiber did not perform every charge"
  in
  ns_per_op "uctx.effect_roundtrip" ~ops:(fibers * charges) (fun () ->
      for _ = 1 to fibers do
        drive 0 (Uctx.run_fiber fiber)
      done)

let boot ~cpus =
  let k = Span.time "Kernel.boot" (fun () -> Kernel.boot ~cpus ()) in
  Kernel.shutdown k

let kernel_boot_us ~cpus =
  let boots = 20 in
  ns_per_op "kernel.boot" ~ops:boots (fun () ->
      for _ = 1 to boots do
        boot ~cpus
      done)
  /. 1e3

(* The Figure-6 shape: two unbound threads hand a token back and forth
   through a pair of semaphores on a one-LWP pool.  Returns host ns per
   handoff and library thread switches per handoff, the latter read with
   [Libthread.stats] inside the program. *)
let pingpong_rounds = 5_000

let pingpong () =
  let switches = ref 0 in
  let main () =
    let a = Semaphore.create () and b = Semaphore.create () in
    let s0 = (Libthread.stats ()).Libthread.switches in
    let ping =
      T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
          for _ = 1 to pingpong_rounds do
            Semaphore.v a;
            Semaphore.p b
          done)
    in
    let pong =
      T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
          for _ = 1 to pingpong_rounds do
            Semaphore.p a;
            Semaphore.v b
          done)
    in
    ignore (T.wait ~thread:ping ());
    ignore (T.wait ~thread:pong ());
    switches := (Libthread.stats ()).Libthread.switches - s0
  in
  let k = Kernel.boot ~cpus:1 () in
  let pid = Kernel.spawn k ~name:"pingpong" ~main:(Libthread.boot main) in
  let t0 = Span.now () in
  Kernel.run k;
  let dt = Span.now () -. t0 in
  Kernel.shutdown k;
  if Kernel.exit_status k pid <> Some 0 then
    failwith "libthread microbenchmark: ping-pong did not finish";
  let handoffs = float (2 * pingpong_rounds) in
  (dt *. 1e9 /. handoffs, float !switches /. handoffs)

type t = {
  schedule_fire_ns : float;
  cancel_rearm_ns : float;
  insert_pop_ns : float;
  push_pick_ns : float;
  effect_roundtrip_ns : float;
  boot_us : float;
  handoff_ns : float;
  switches_per_handoff : float;
}

let run ~cpus =
  let effect_roundtrip_ns = uctx_effect_roundtrip () in
  let schedule_fire_ns = eventq_schedule_fire () in
  let cancel_rearm_ns = eventq_cancel_rearm () in
  let insert_pop_ns = pheap_insert_pop () in
  let push_pick_ns = prioq_push_pick () in
  let boot_us = kernel_boot_us ~cpus in
  let runs = Span.time "libthread.pingpong" (fun () -> List.init batches (fun _ -> pingpong ())) in
  {
    schedule_fire_ns;
    cancel_rearm_ns;
    insert_pop_ns;
    push_pick_ns;
    effect_roundtrip_ns;
    boot_us;
    handoff_ns = median (List.map fst runs);
    switches_per_handoff = median (List.map snd runs);
  }
