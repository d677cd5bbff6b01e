(* The schedule explorer (Explore + Schedctl) over the scenario set.

   Three things are under test.  First, exhaustion itself: the correct
   scenarios pass under EVERY interleaving (and the space is actually
   non-trivial — we assert the explored counts), while the cyclic
   lock-chain scenario's real deadlocks are FOUND, not merely possible.
   Second, the reduction: DPOR must prune work without changing
   verdicts.  Third, the teeth: seeding either schedule-sensitive bug
   back in (the BUG 14 bare upgrader, the SIGWAITING no-re-arm) must
   make the explorer find a failing schedule, write a repro file, and
   replay it standalone to the same failure. *)

module Explore = Sunos_sim.Explore
module Schedctl = Sunos_sim.Schedctl
module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Rwlock = Sunos_threads.Rwlock
module Sc = Sunos_workloads.Explore_scenarios

let find name =
  match Sc.find name with
  | Some sc -> sc
  | None -> Alcotest.failf "scenario %s not registered" name

let exhaust ?max_schedules name =
  Sc.explore ?max_schedules (find name)

let check_clean name ~min_explored =
  let st = exhaust name in
  Alcotest.(check bool)
    (Printf.sprintf "%s: full exhaustion (no budget cap)" name)
    false st.Explore.capped;
  Alcotest.(check bool)
    (Printf.sprintf "%s: explored >= %d (got %d)" name min_explored
       st.Explore.explored)
    true
    (st.Explore.explored >= min_explored);
  Alcotest.(check int)
    (Printf.sprintf "%s: no failing schedule" name)
    0
    (List.length st.Explore.failures)

(* ----------------------- clean scenarios ----------------------------- *)

let test_mutex_condvar () = check_clean "mutex-condvar" ~min_explored:2
let test_semaphore_handoff () = check_clean "semaphore-handoff" ~min_explored:20
let test_rwlock_upgrade () = check_clean "rwlock-upgrade" ~min_explored:2
let test_robust_ownerdead () = check_clean "robust-ownerdead" ~min_explored:2
let test_lock_ordered () = check_clean "lock-ordered" ~min_explored:50
let test_sigwaiting_rearm () = check_clean "sigwaiting-rearm" ~min_explored:2

(* ----------------------- deadlock discovery -------------------------- *)

(* The cyclic chain is the point of the exercise: exhaustion must find
   the schedules that really deadlock (thrsan's waits-for cycle kills
   the process), among many that complete. *)
let test_lock_chain_deadlocks_found () =
  let sc = find "lock-chain" in
  Alcotest.(check bool) "scenario expects failures" true sc.Sc.sc_expect_fail;
  let st = Sc.explore sc in
  Alcotest.(check bool) "full exhaustion" false st.Explore.capped;
  Alcotest.(check bool)
    (Printf.sprintf "explored a real tree (%d)" st.Explore.explored)
    true
    (st.Explore.explored >= 50);
  Alcotest.(check bool)
    (Printf.sprintf "found deadlocking schedules (%d)"
       (List.length st.Explore.failures))
    true
    (List.length st.Explore.failures > 0);
  List.iter
    (fun f ->
      Alcotest.(check bool) "every failure is the waits-for deadlock" true
        (let s = f.Explore.f_reason in
         let sub = "deadlock" in
         let n = String.length s and m = String.length sub in
         let rec scan i =
           i + m <= n && (String.sub s i m = sub || scan (i + 1))
         in
         scan 0))
    st.Explore.failures

(* DPOR prunes schedules but must not change the verdict: the raw tree
   and the reduced tree agree on whether failures exist, and the
   reduction actually did something on the scenario with footprints. *)
let test_dpor_parity () =
  let sc = find "lock-chain" in
  let reduced = Explore.explore ~dpor:true sc.Sc.sc_run in
  let raw = Explore.explore ~dpor:false sc.Sc.sc_run in
  Alcotest.(check bool) "reduced tree found deadlocks" true
    (reduced.Explore.failures <> []);
  Alcotest.(check bool) "raw tree found deadlocks" true
    (raw.Explore.failures <> []);
  Alcotest.(check bool)
    (Printf.sprintf "reduction explored no more than raw (%d <= %d)"
       reduced.Explore.explored raw.Explore.explored)
    true
    (reduced.Explore.explored <= raw.Explore.explored);
  Alcotest.(check bool) "reduction pruned something" true
    (reduced.Explore.pruned > 0);
  Alcotest.(check int) "raw tree prunes nothing" 0 raw.Explore.pruned

(* ----------------------- the kwake decision -------------------------- *)

(* Two LWPs kwait on one channel, the second 1 ms after the first, so
   the channel holds them in creation order in every schedule.  A third
   LWP then wakes [count] of them, and wakes the rest 1 ms later.
   Returns the lwpids in the order their kwaits returned. *)
let kwake_run ~count () =
  let k = Kernel.boot ~cpus:2 () in
  let woken = ref [] in
  ignore
    (Kernel.spawn k ~name:"kwake" ~main:(fun () ->
         let seg = Uctx.mmap_anon ~size:4096 ~shared:true in
         for _ = 1 to 2 do
           ignore
             (Uctx.lwp_create
                ~entry:(fun () ->
                  ignore (Uctx.kwait ~seg ~offset:0 ());
                  let me = Uctx.getlwpid () in
                  woken := me :: !woken)
                ());
           Uctx.sleep (Time.ms 1)
         done;
         let n = Uctx.kwake ~seg ~offset:0 ~count in
         Uctx.sleep (Time.ms 1);
         if n < 2 then ignore (Uctx.kwake ~seg ~offset:0 ~count:(2 - n))));
  Kernel.run ~max_events:100_000 k;
  List.rev !woken

let kwake_decisions log =
  List.filter (fun d -> d.Schedctl.d_site = "kwake") log

(* A selective wake is a decision: the explorer must run a schedule in
   which each waiter gets the word first. *)
let test_kwake_orders_explored () =
  let firsts = ref [] in
  let st =
    Explore.explore (fun () ->
        match kwake_run ~count:1 () with
        | [ first; _ ] ->
            if not (List.mem first !firsts) then firsts := first :: !firsts;
            Explore.Pass
        | l -> Explore.Fail (Printf.sprintf "%d of 2 woke" (List.length l)))
  in
  Alcotest.(check int) "no failing schedule" 0 (List.length st.Explore.failures);
  Alcotest.(check bool) "full exhaustion" false st.Explore.capped;
  Alcotest.(check int) "both waiters were woken first" 2 (List.length !firsts);
  Schedctl.begin_run ~vector:[||];
  ignore (kwake_run ~count:1 ());
  let log, _ = Schedctl.end_run () in
  Alcotest.(check (list int)) "one kwake decision over two waiters" [ 2 ]
    (List.map (fun d -> d.Schedctl.d_arity) (kwake_decisions log))

(* A wake whose count covers every waiter leaves nothing to choose. *)
let test_kwake_all_no_decision () =
  Schedctl.begin_run ~vector:[||];
  let woken = kwake_run ~count:2 () in
  let log, _ = Schedctl.end_run () in
  Alcotest.(check int) "both woke" 2 (List.length woken);
  Alcotest.(check int) "no kwake decision" 0
    (List.length (kwake_decisions log))

(* ----------------------- seeded-bug teeth ---------------------------- *)

let with_knob knob f =
  knob := true;
  Fun.protect ~finally:(fun () -> knob := false) f

(* Re-introduce BUG 14 (bare-parked upgrader, promotion through the
   TCB): the explorer must find a failing schedule, leave a repro file,
   and the repro must replay standalone to a failure. *)
let test_bug14_reintroduction_caught () =
  let sc = find "rwlock-upgrade" in
  let repro = Explore.repro_path ~scenario:sc.Sc.sc_name in
  if Sys.file_exists repro then Sys.remove repro;
  with_knob Rwlock.bug14_bare_upgrader (fun () ->
      let st = Sc.explore ~max_schedules:2_000 sc in
      Alcotest.(check bool) "explorer caught the seeded BUG 14" true
        (st.Explore.failures <> []);
      Alcotest.(check bool) "repro file written" true (Sys.file_exists repro);
      let scenario, vector = Explore.read_repro repro in
      Alcotest.(check string) "repro names the scenario" sc.Sc.sc_name
        scenario;
      let outcome, _ = Sc.replay sc ~vector in
      Alcotest.(check bool) "failure reproduces standalone" true
        (match outcome with Explore.Fail _ -> true | Explore.Pass -> false));
  Sys.remove repro;
  (* and with the fix back in, the same exhaustion is clean *)
  let st = Sc.explore sc in
  Alcotest.(check int) "fixed code: no failing schedule" 0
    (List.length st.Explore.failures)

let test_sigwaiting_reintroduction_caught () =
  let sc = find "sigwaiting-rearm" in
  let repro = Explore.repro_path ~scenario:sc.Sc.sc_name in
  if Sys.file_exists repro then Sys.remove repro;
  with_knob Kernel.bug_sigwaiting_no_rearm (fun () ->
      let st = Sc.explore ~max_schedules:500 sc in
      Alcotest.(check bool) "explorer caught the seeded no-re-arm bug" true
        (st.Explore.failures <> []);
      Alcotest.(check bool) "repro file written" true (Sys.file_exists repro);
      let _, vector = Explore.read_repro repro in
      let outcome, _ = Sc.replay sc ~vector in
      Alcotest.(check bool) "failure reproduces standalone" true
        (match outcome with Explore.Fail _ -> true | Explore.Pass -> false));
  Sys.remove repro;
  let st = Sc.explore sc in
  Alcotest.(check int) "fixed code: no failing schedule" 0
    (List.length st.Explore.failures)

(* ----------------------- plumbing ------------------------------------ *)

(* Outside the explorer every scenario must pass as plain code: the
   passive Schedctl path is the engine's normal behavior. *)
let test_scenarios_pass_undriven () =
  List.iter
    (fun sc ->
      if not sc.Sc.sc_expect_fail then
        match sc.Sc.sc_run () with
        | Explore.Pass -> ()
        | Explore.Fail r ->
            Alcotest.failf "%s failed undriven: %s" sc.Sc.sc_name r)
    Sc.all

let test_repro_roundtrip () =
  let path = Filename.temp_file "explore" ".repro" in
  Explore.write_repro ~path ~scenario:"demo" ~reason:"because"
    ~vector:[| 0; 3; 1 |];
  let scenario, vector = Explore.read_repro path in
  Sys.remove path;
  Alcotest.(check string) "scenario survives" "demo" scenario;
  Alcotest.(check (array int)) "vector survives" [| 0; 3; 1 |] vector

(* A driven run that goes off-script reports divergence instead of
   crashing: feed a vector with an out-of-range choice. *)
let test_divergence_reported () =
  let sc = find "mutex-condvar" in
  let _, diverged = Sc.replay sc ~vector:[| 9 |] in
  Alcotest.(check bool) "divergence diagnosed" true (diverged <> None)

let () =
  Alcotest.run "explore"
    [
      ( "exhaustion",
        [
          Alcotest.test_case "mutex-condvar" `Quick test_mutex_condvar;
          Alcotest.test_case "semaphore-handoff" `Quick
            test_semaphore_handoff;
          Alcotest.test_case "rwlock-upgrade" `Quick test_rwlock_upgrade;
          Alcotest.test_case "robust-ownerdead" `Quick test_robust_ownerdead;
          Alcotest.test_case "lock-ordered" `Quick test_lock_ordered;
          Alcotest.test_case "sigwaiting-rearm" `Quick test_sigwaiting_rearm;
        ] );
      ( "discovery",
        [
          Alcotest.test_case "lock-chain deadlocks found" `Quick
            test_lock_chain_deadlocks_found;
          Alcotest.test_case "dpor parity" `Quick test_dpor_parity;
        ] );
      ( "kwake decision",
        [
          Alcotest.test_case "both wake orders explored" `Quick
            test_kwake_orders_explored;
          Alcotest.test_case "count covering all waiters records none" `Quick
            test_kwake_all_no_decision;
        ] );
      ( "seeded bugs",
        [
          Alcotest.test_case "BUG 14 reintroduction caught" `Quick
            test_bug14_reintroduction_caught;
          Alcotest.test_case "SIGWAITING reintroduction caught" `Quick
            test_sigwaiting_reintroduction_caught;
        ] );
      ( "plumbing",
        [
          Alcotest.test_case "scenarios pass undriven" `Quick
            test_scenarios_pass_undriven;
          Alcotest.test_case "repro roundtrip" `Quick test_repro_roundtrip;
          Alcotest.test_case "divergence reported" `Quick
            test_divergence_reported;
        ] );
    ]
