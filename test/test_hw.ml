(* Tests for the hardware layer: cost model, CPUs, shared memory, devices. *)

module Time = Sunos_sim.Time
module Eventq = Sunos_sim.Eventq
module Univ = Sunos_sim.Univ
module Cost = Sunos_hw.Cost_model
module Cpu = Sunos_hw.Cpu
module Shm = Sunos_hw.Shared_memory
module Devices = Sunos_hw.Devices
module Machine = Sunos_hw.Machine

let span = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

(* --------------------------- Cost model --------------------------- *)

let test_cost_scale () =
  let c = Cost.scale 2.0 Cost.default in
  Alcotest.check span "trap doubled"
    (Int64.mul 2L Cost.default.Cost.trap_entry)
    c.Cost.trap_entry;
  Alcotest.check span "lwp_create doubled"
    (Int64.mul 2L Cost.default.Cost.lwp_create)
    c.Cost.lwp_create

(* [coalesce] is the one switch for run-ahead coalescing: [scale] must
   carry it through unchanged. *)
let test_cost_scale_coalesce () =
  let off = Cost.scale 3.0 { Cost.default with Cost.coalesce = false } in
  Alcotest.(check bool) "switch kept off" false off.Cost.coalesce;
  Alcotest.(check bool) "switch kept on" true
    (Cost.scale 3.0 Cost.default).Cost.coalesce

let test_cost_free () =
  Alcotest.check span "free trap" 0L Cost.free.Cost.trap_entry;
  Alcotest.(check bool) "free quantum nonzero" true
    Time.(Cost.free.Cost.quantum > 0L)

let test_cost_calibration_sanity () =
  (* the component costs must preserve the paper's gross structure *)
  let c = Cost.default in
  Alcotest.(check bool) "lwp create >> user-level create path" true
    Time.(c.Cost.lwp_create > Int64.mul 20L c.Cost.tcb_init);
  Alcotest.(check bool) "kernel sleep path > user sync fast path" true
    Time.(c.Cost.sleep_enqueue > c.Cost.sync_fast)

(* --------------------------- Cpu --------------------------- *)

let test_cpu_accounting () =
  let cpu = Cpu.create ~id:0 in
  Cpu.set_occupant cpu ~now:0L (Some 1);
  Cpu.set_occupant cpu ~now:100L None;
  Cpu.set_occupant cpu ~now:150L (Some 2);
  Alcotest.check span "busy" 150L (Cpu.busy_time cpu ~now:200L);
  Alcotest.check span "idle" 50L (Cpu.idle_time cpu ~now:200L);
  Alcotest.(check (float 0.001)) "utilization" 0.75
    (Cpu.utilization cpu ~now:200L)

let test_cpu_need_resched () =
  let cpu = Cpu.create ~id:3 in
  Alcotest.(check bool) "initially false" false (Cpu.need_resched cpu);
  Cpu.set_need_resched cpu true;
  Alcotest.(check bool) "set" true (Cpu.need_resched cpu)

(* --------------------------- Shared memory --------------------------- *)

let test_shm_cells () =
  let seg = Shm.create ~name:"seg" ~size:8192 in
  let key : int Univ.key = Univ.key () in
  Shm.put seg ~offset:64 (Univ.pack key 7);
  (match Shm.get seg ~offset:64 with
  | Some u -> Alcotest.(check (option int)) "cell" (Some 7) (Univ.unpack key u)
  | None -> Alcotest.fail "expected cell");
  Alcotest.(check bool) "empty offset" true (Shm.get seg ~offset:128 = None);
  Alcotest.check_raises "occupied"
    (Invalid_argument "Shared_memory.put: offset occupied") (fun () ->
      Shm.put seg ~offset:64 (Univ.pack key 9));
  Shm.remove seg ~offset:64;
  Alcotest.(check bool) "removed" true (Shm.get seg ~offset:64 = None)

let test_shm_residency () =
  let seg = Shm.create ~name:"seg" ~size:(3 * 4096) in
  Alcotest.(check int) "pages" 3 (Shm.page_count seg);
  Alcotest.(check bool) "cold" false (Shm.resident seg ~page:1);
  Shm.make_resident seg ~page:1;
  Alcotest.(check bool) "warm" true (Shm.resident seg ~page:1);
  Shm.evict_all seg;
  Alcotest.(check bool) "evicted" false (Shm.resident seg ~page:1);
  Alcotest.(check int) "page_of_offset" 2 (Shm.page_of_offset ~offset:(2 * 4096))

let test_shm_unique_ids () =
  let a = Shm.create ~name:"a" ~size:4096 in
  let b = Shm.create ~name:"a" ~size:4096 in
  Alcotest.(check bool) "ids distinct" true (Shm.id a <> Shm.id b)

let test_shm_bounds () =
  let seg = Shm.create ~name:"seg" ~size:4096 in
  Alcotest.check_raises "oob" (Invalid_argument "Shared_memory: offset out of bounds")
    (fun () -> ignore (Shm.get seg ~offset:4096))

(* --------------------------- Devices --------------------------- *)

let test_disk_fifo_serial () =
  let eventq = Eventq.create () in
  let disk = Devices.Disk.create ~eventq ~access_time:(Time.ms 10) () in
  let log = ref [] in
  Devices.Disk.submit disk ~bytes_:0 ~on_complete:(fun () ->
      log := (1, Eventq.now eventq) :: !log);
  Devices.Disk.submit disk ~bytes_:0 ~on_complete:(fun () ->
      log := (2, Eventq.now eventq) :: !log);
  Alcotest.(check int) "queued" 2 (Devices.Disk.queue_length disk);
  Eventq.run eventq;
  (match List.rev !log with
  | [ (1, t1); (2, t2) ] ->
      Alcotest.check span "first at 10ms" (Time.ms 10) t1;
      Alcotest.check span "second serialized at 20ms" (Time.ms 20) t2
  | _ -> Alcotest.fail "expected two completions");
  Alcotest.(check int) "completed" 2 (Devices.Disk.completed disk)

let test_disk_transfer_time () =
  let eventq = Eventq.create () in
  let disk = Devices.Disk.create ~eventq ~access_time:(Time.ms 1) () in
  let finish = ref 0L in
  Devices.Disk.submit disk ~bytes_:4096 ~on_complete:(fun () ->
      finish := Eventq.now eventq);
  Eventq.run eventq;
  Alcotest.(check bool) "transfer adds time" true Time.(!finish > Time.ms 1)

let test_net_concurrent () =
  let eventq = Eventq.create () in
  let net = Devices.Net.create ~eventq ~rtt:(Time.ms 4) () in
  let done1 = ref 0L and done2 = ref 0L in
  Devices.Net.send net ~bytes_:0 ~on_complete:(fun () -> done1 := Eventq.now eventq);
  Devices.Net.send net ~bytes_:0 ~on_complete:(fun () -> done2 := Eventq.now eventq);
  Alcotest.(check int) "both in flight" 2 (Devices.Net.in_flight net);
  Eventq.run eventq;
  Alcotest.check span "one-way latency" (Time.ms 2) !done1;
  Alcotest.check span "concurrent (not serialized)" (Time.ms 2) !done2

let test_net_request_response () =
  let eventq = Eventq.create () in
  let net = Devices.Net.create ~eventq ~rtt:(Time.ms 4) () in
  let t = ref 0L in
  Devices.Net.request_response net ~bytes_:0 ~on_complete:(fun () ->
      t := Eventq.now eventq);
  Eventq.run eventq;
  Alcotest.check span "full rtt" (Time.ms 4) !t

(* --------------------------- Machine --------------------------- *)

let test_machine_create () =
  let m = Machine.create ~cpus:4 () in
  Alcotest.(check int) "cpus" 4 (Machine.ncpus m);
  Alcotest.check span "boot time" 0L (Machine.now m);
  Machine.trace m Sunos_sim.Tracebuf.Dispatch ~cpu:3 ~pid:1 ~lwp:2 ~name:""
    ~name2:"" ~arg:(-1) ~arg2:(-1) ~arg3:(-1);
  let recs = Sunos_sim.Tracebuf.records m.Machine.trace in
  Alcotest.(check (list string)) "trace emitted" [ "cpu3 <- pid1/lwp2" ]
    (List.map Sunos_sim.Tracebuf.message recs)

(* A record nobody will read is never built: with tracing off, or its
   tag filtered out, emitting allocates nothing on the hot paths. *)
let test_machine_untraced_emit_allocates_nothing () =
  let m = Machine.create ~cpus:2 () in
  let emit_all () =
    for i = 1 to 1000 do
      Machine.trace m Sunos_sim.Tracebuf.Sleep ~cpu:(-1) ~pid:i ~lwp:1
        ~name:"pipe" ~name2:"" ~arg:1 ~arg2:(-1) ~arg3:(-1)
    done
  in
  let words f =
    let w0 = Gc.minor_words () in
    f ();
    Gc.minor_words () -. w0
  in
  Sunos_sim.Tracebuf.set_enabled m.Machine.trace false;
  let off = words emit_all in
  Sunos_sim.Tracebuf.set_enabled m.Machine.trace true;
  Sunos_sim.Tracebuf.set_interest m.Machine.trace (Some [ "dispatch" ]);
  let filtered = words emit_all in
  Alcotest.(check (list int)) "no record kept" []
    (List.map (fun r -> r.Sunos_sim.Tracebuf.pid)
       (Sunos_sim.Tracebuf.records m.Machine.trace));
  (* the measurement itself boxes a float or two *)
  Alcotest.(check bool) "tracing off: no words" true (off < 16.);
  Alcotest.(check bool) "tag filtered out: no words" true (filtered < 16.)

let test_machine_zero_cpus_rejected () =
  Alcotest.check_raises "zero cpus" (Invalid_argument "Machine.create: cpus")
    (fun () -> ignore (Machine.create ~cpus:0 ()))

let () =
  Alcotest.run "sunos_hw"
    [
      ( "cost_model",
        [
          Alcotest.test_case "scale" `Quick test_cost_scale;
          Alcotest.test_case "free" `Quick test_cost_free;
          Alcotest.test_case "calibration sanity" `Quick
            test_cost_calibration_sanity;
          Alcotest.test_case "scale keeps the coalesce switch" `Quick
            test_cost_scale_coalesce;
        ] );
      ( "cpu",
        [
          Alcotest.test_case "accounting" `Quick test_cpu_accounting;
          Alcotest.test_case "need_resched" `Quick test_cpu_need_resched;
        ] );
      ( "shared_memory",
        [
          Alcotest.test_case "cells" `Quick test_shm_cells;
          Alcotest.test_case "residency" `Quick test_shm_residency;
          Alcotest.test_case "unique ids" `Quick test_shm_unique_ids;
          Alcotest.test_case "bounds" `Quick test_shm_bounds;
        ] );
      ( "devices",
        [
          Alcotest.test_case "disk fifo" `Quick test_disk_fifo_serial;
          Alcotest.test_case "disk transfer" `Quick test_disk_transfer_time;
          Alcotest.test_case "net concurrent" `Quick test_net_concurrent;
          Alcotest.test_case "net rtt" `Quick test_net_request_response;
        ] );
      ( "machine",
        [
          Alcotest.test_case "create" `Quick test_machine_create;
          Alcotest.test_case "zero cpus" `Quick test_machine_zero_cpus_rejected;
          Alcotest.test_case "untraced emit allocates nothing" `Quick
            test_machine_untraced_emit_allocates_nothing;
        ] );
    ]
