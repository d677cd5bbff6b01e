(* Unit + property tests for the simulation engine. *)

module Time = Sunos_sim.Time
module Pheap = Sunos_sim.Pheap
module Eventq = Sunos_sim.Eventq
module Rng = Sunos_sim.Rng
module Stats = Sunos_sim.Stats
module Tracebuf = Sunos_sim.Tracebuf
module Univ = Sunos_sim.Univ
module Schedctl = Sunos_sim.Schedctl
module Prioq = Sunos_sim.Prioq

let span = Alcotest.testable (Fmt.of_to_string Int64.to_string) Int64.equal

(* ------------------------------ Time ------------------------------ *)

let test_time_units () =
  Alcotest.check span "us" 1_000L (Time.us 1);
  Alcotest.check span "ms" 1_000_000L (Time.ms 1);
  Alcotest.check span "s" 1_000_000_000L (Time.s 1);
  Alcotest.check span "us_f rounds" 1_500L (Time.us_f 1.5);
  Alcotest.check span "add" 3L (Time.add 1L 2L);
  Alcotest.check span "diff" 5L (Time.diff 8L 3L)

let test_time_compare () =
  Alcotest.(check bool) "lt" true Time.(1L < 2L);
  Alcotest.(check bool) "le eq" true Time.(2L <= 2L);
  Alcotest.(check bool) "gt" false Time.(1L > 2L);
  Alcotest.check span "max" 9L (Time.max 9L 3L);
  Alcotest.check span "min" 3L (Time.min 9L 3L)

let test_time_pp () =
  let s t = Format.asprintf "%a" Time.pp t in
  Alcotest.(check string) "ns" "500ns" (s 500L);
  Alcotest.(check string) "us" "2.00us" (s (Time.us 2));
  Alcotest.(check string) "ms" "3.50ms" (s (Time.us 3500));
  Alcotest.(check string) "s" "2.000s" (s (Time.s 2))

(* ------------------------------ Pheap ------------------------------ *)

let test_pheap_basic () =
  let h = Pheap.create ~cmp:compare in
  Alcotest.(check bool) "empty" true (Pheap.is_empty h);
  List.iter (Pheap.insert h) [ 5; 1; 4; 1; 3 ];
  Alcotest.(check int) "size" 5 (Pheap.size h);
  Alcotest.(check (option int)) "peek" (Some 1) (Pheap.peek_min h);
  let rec drain acc =
    match Pheap.pop_min h with None -> List.rev acc | Some x -> drain (x :: acc)
  in
  Alcotest.(check (list int)) "sorted drain" [ 1; 1; 3; 4; 5 ] (drain [])

let prop_pheap_sorted =
  QCheck.Test.make ~name:"pheap pops in sorted order" ~count:200
    QCheck.(list int)
    (fun xs ->
      let h = Pheap.create ~cmp:compare in
      List.iter (Pheap.insert h) xs;
      let rec drain acc =
        match Pheap.pop_min h with
        | None -> List.rev acc
        | Some x -> drain (x :: acc)
      in
      drain [] = List.sort compare xs)

let test_pheap_top_drop () =
  let h = Pheap.create ~cmp:compare in
  Alcotest.check_raises "top of empty" (Invalid_argument "Pheap.top: empty")
    (fun () -> ignore (Pheap.top h));
  Pheap.drop_min h;
  Alcotest.(check int) "drop_min on empty is a no-op" 0 (Pheap.size h);
  List.iter (Pheap.insert h) [ 7; 2; 9; 2; 5 ];
  Alcotest.(check (option int)) "top agrees with peek_min" (Pheap.peek_min h)
    (Some (Pheap.top h));
  let rec drain acc =
    if Pheap.is_empty h then List.rev acc
    else begin
      let x = Pheap.top h in
      Pheap.drop_min h;
      drain (x :: acc)
    end
  in
  Alcotest.(check (list int)) "top/drop_min drain sorted" [ 2; 2; 5; 7; 9 ]
    (drain []);
  Alcotest.(check int) "emptied" 0 (Pheap.size h)

(* Interleaved inserts and removals: [top]/[drop_min] on one heap and
   [pop_min] on another must see the same minimum at every step. *)
let prop_pheap_top_drop_matches_pop =
  QCheck.Test.make ~name:"pheap top/drop_min matches pop_min" ~count:200
    QCheck.(list (option small_int))
    (fun ops ->
      let a = Pheap.create ~cmp:compare and b = Pheap.create ~cmp:compare in
      List.for_all
        (function
          | Some x ->
              Pheap.insert a x;
              Pheap.insert b x;
              Pheap.size a = Pheap.size b
          | None ->
              let via_top =
                if Pheap.is_empty a then None
                else begin
                  let x = Pheap.top a in
                  Pheap.drop_min a;
                  Some x
                end
              in
              via_top = Pheap.pop_min b && Pheap.size a = Pheap.size b)
        ops)

(* ------------------------------ Eventq ------------------------------ *)

let test_eventq_order () =
  let q = Eventq.create () in
  let log = ref [] in
  ignore (Eventq.at q 30L (fun () -> log := 3 :: !log));
  ignore (Eventq.at q 10L (fun () -> log := 1 :: !log));
  ignore (Eventq.at q 20L (fun () -> log := 2 :: !log));
  Eventq.run q;
  Alcotest.(check (list int)) "time order" [ 1; 2; 3 ] (List.rev !log);
  Alcotest.check span "clock at last event" 30L (Eventq.now q)

let test_eventq_fifo_ties () =
  let q = Eventq.create () in
  let log = ref [] in
  for i = 1 to 5 do
    ignore (Eventq.at q 10L (fun () -> log := i :: !log))
  done;
  Eventq.run q;
  Alcotest.(check (list int)) "FIFO at same instant" [ 1; 2; 3; 4; 5 ]
    (List.rev !log)

let test_eventq_cancel () =
  let q = Eventq.create () in
  let fired = ref false in
  let h = Eventq.at q 10L (fun () -> fired := true) in
  Alcotest.(check bool) "pending" true (Eventq.is_pending h);
  Eventq.cancel h;
  Alcotest.(check bool) "not pending" false (Eventq.is_pending h);
  Eventq.run q;
  Alcotest.(check bool) "cancelled did not fire" false !fired

let test_eventq_past_rejected () =
  let q = Eventq.create () in
  ignore (Eventq.at q 10L (fun () -> ()));
  Eventq.run q;
  Alcotest.check_raises "past" (Invalid_argument "Eventq.at: scheduling in the past")
    (fun () -> ignore (Eventq.at q 5L (fun () -> ())))

let test_eventq_until () =
  let q = Eventq.create () in
  let log = ref [] in
  ignore (Eventq.at q 10L (fun () -> log := 1 :: !log));
  ignore (Eventq.at q 100L (fun () -> log := 2 :: !log));
  Eventq.run ~until:50L q;
  Alcotest.(check (list int)) "only first" [ 1 ] (List.rev !log);
  Alcotest.check span "clock at horizon" 50L (Eventq.now q);
  Eventq.run q;
  Alcotest.(check (list int)) "rest runs" [ 1; 2 ] (List.rev !log)

let test_eventq_cascade () =
  (* events scheduling events *)
  let q = Eventq.create () in
  let count = ref 0 in
  let rec tick () =
    incr count;
    if !count < 10 then ignore (Eventq.after q 5L tick)
  in
  ignore (Eventq.after q 5L tick);
  Eventq.run q;
  Alcotest.(check int) "10 ticks" 10 !count;
  Alcotest.check span "clock" 50L (Eventq.now q)

let test_eventq_pending_exact () =
  let q = Eventq.create () in
  let hs = List.init 5 (fun i -> Eventq.at q (Int64.of_int (10 + i)) ignore) in
  Alcotest.(check int) "all pending" 5 (Eventq.pending_count q);
  (* cancel two *back* entries: the count must drop immediately even
     though the heap deletes lazily and nothing has pruned the front *)
  Eventq.cancel (List.nth hs 3);
  Eventq.cancel (List.nth hs 4);
  Alcotest.(check int) "cancels accounted" 3 (Eventq.pending_count q);
  Eventq.run q;
  Alcotest.(check int) "drained" 0 (Eventq.pending_count q)

let test_eventq_cancel_churn () =
  (* the net server's timer re-arm pattern at 10k scale: every handle is
     cancelled before it can fire.  Compaction must keep the heap
     population bounded near the live count instead of letting 10k dead
     handles accumulate. *)
  let q = Eventq.create () in
  for _ = 1 to 10_000 do
    let h = Eventq.after q 1_000_000L ignore in
    Eventq.cancel h
  done;
  Alcotest.(check int) "live exact" 0 (Eventq.pending_count q);
  Alcotest.(check bool)
    (Printf.sprintf "heap bounded (%d)" (Eventq.heap_population q))
    true
    (Eventq.heap_population q <= 128);
  (* interleaved live + cancelled: population stays within ~2x of live *)
  let fired = ref 0 in
  let live = List.init 100 (fun i ->
      Eventq.at q (Int64.of_int (2_000_000 + i)) (fun () -> incr fired))
  in
  for _ = 1 to 10_000 do
    let h = Eventq.after q 3_000_000L ignore in
    Eventq.cancel h
  done;
  Alcotest.(check int) "live exact under churn" 100 (Eventq.pending_count q);
  Alcotest.(check bool)
    (Printf.sprintf "heap within 2x of live (%d)" (Eventq.heap_population q))
    true
    (Eventq.heap_population q <= 2 * List.length live + 128);
  Eventq.run q;
  Alcotest.(check int) "live handles all fired" 100 !fired

let test_eventq_run_one () =
  let q = Eventq.create () in
  Alcotest.(check bool) "empty queue" false (Eventq.run_one q);
  let log = ref [] in
  let first = Eventq.at q 10L (fun () -> log := 1 :: !log) in
  ignore (Eventq.at q 20L (fun () -> log := 2 :: !log));
  ignore (Eventq.at q 30L (fun () -> log := 3 :: !log));
  Eventq.cancel first;
  Alcotest.(check bool) "fires past a cancelled head" true (Eventq.run_one q);
  Alcotest.(check (list int)) "one event" [ 2 ] (List.rev !log);
  Alcotest.check span "clock at that event" 20L (Eventq.now q);
  Alcotest.(check bool) "next" true (Eventq.run_one q);
  Alcotest.(check bool) "then empty" false (Eventq.run_one q);
  Alcotest.(check (list int)) "in order" [ 2; 3 ] (List.rev !log);
  Alcotest.(check int) "fired count" 2 (Eventq.events_fired q)

let test_eventq_max_events () =
  let q = Eventq.create () in
  let log = ref [] and drained = ref 0 in
  Eventq.on_drain q (fun () -> incr drained);
  List.iter
    (fun t -> ignore (Eventq.at q t (fun () -> log := t :: !log)))
    [ 10L; 20L; 30L ];
  Eventq.run ~max_events:2 q;
  Alcotest.(check (list int64)) "budget of two" [ 10L; 20L ] (List.rev !log);
  Alcotest.check span "clock at the second" 20L (Eventq.now q);
  Alcotest.(check int) "budget stop is not a drain" 0 !drained;
  Eventq.run q;
  Alcotest.(check (list int64)) "rest runs" [ 10L; 20L; 30L ] (List.rev !log);
  Alcotest.(check int) "drain hook once" 1 !drained

let test_eventq_time_to_next () =
  let q = Eventq.create () in
  let next () = Eventq.time_to_next q ~cap:100 in
  Alcotest.(check int) "empty, no horizon: the cap" 100 (next ());
  let head = Eventq.at q 10L ignore in
  ignore (Eventq.at q 40L ignore);
  Alcotest.(check int) "live head" 10 (next ());
  Alcotest.(check int) "capped" 5 (Eventq.time_to_next q ~cap:5);
  Eventq.cancel head;
  Alcotest.(check int) "skips the cancelled head" 40 (next ());
  ignore (Eventq.arm q ~tag:0 35);
  Alcotest.(check int) "an armed entry counts" 35 (next ());
  (* inside a horizon-limited run the answer is clamped to the horizon,
     and restored once the run returns *)
  let seen = ref (-1) in
  ignore (Eventq.at q 20L (fun () -> seen := next ()));
  Eventq.run ~until:30L q;
  Alcotest.(check int) "clamped to until" 10 !seen;
  Alcotest.(check int) "horizon released" 5 (next ())

let test_eventq_same_instant_from_callback () =
  (* an event scheduled for the current instant by a callback runs after
     the events already queued for that instant *)
  let q = Eventq.create () in
  let log = ref [] in
  ignore
    (Eventq.at q 10L (fun () ->
         log := "a" :: !log;
         ignore (Eventq.after q 0L (fun () -> log := "a'" :: !log))));
  ignore (Eventq.at q 10L (fun () -> log := "b" :: !log));
  ignore (Eventq.at q 11L (fun () -> log := "c" :: !log));
  Eventq.run q;
  Alcotest.(check (list string)) "FIFO" [ "a"; "b"; "a'"; "c" ] (List.rev !log)

let test_eventq_cancel_next_from_callback () =
  (* a callback cancels the event that is now at the top of the heap:
     [run] must look at the head afresh, not fire one it saw earlier *)
  let q = Eventq.create () in
  let log = ref [] in
  let next = ref None in
  ignore
    (Eventq.at q 10L (fun () ->
         log := 1 :: !log;
         Option.iter Eventq.cancel !next));
  next := Some (Eventq.at q 10L (fun () -> log := 2 :: !log));
  ignore (Eventq.at q 20L (fun () -> log := 3 :: !log));
  Eventq.run q;
  Alcotest.(check (list int)) "cancelled head skipped" [ 1; 3 ] (List.rev !log);
  Alcotest.(check int) "two fired" 2 (Eventq.events_fired q)

let test_eventq_drain_skims_cancelled () =
  (* too few cancels to trigger compaction: the dead entries stay in the
     heap until they surface, and a full drain must remove them all *)
  let q = Eventq.create () in
  let hs = List.init 20 (fun i -> Eventq.at q (Int64.of_int (i + 1)) ignore) in
  List.iteri (fun i h -> if i mod 2 = 0 then Eventq.cancel h) hs;
  Alcotest.(check int) "dead still in the heap" 20 (Eventq.heap_population q);
  Eventq.run q;
  Alcotest.(check int) "live fired" 10 (Eventq.events_fired q);
  Alcotest.(check int) "heap empty" 0 (Eventq.heap_population q);
  Alcotest.(check int) "nothing pending" 0 (Eventq.pending_count q)

(* Against a model: the live events fire in (time, scheduling order),
   whatever is cancelled in between. *)
let prop_eventq_model =
  QCheck.Test.make ~name:"eventq fires live events in (time, seq) order"
    ~count:200
    QCheck.(list (pair (int_bound 50) bool))
    (fun spec ->
      let q = Eventq.create () in
      let fired = ref [] in
      let hs =
        List.mapi
          (fun i (t, _) ->
            Eventq.at q (Int64.of_int t) (fun () -> fired := i :: !fired))
          spec
      in
      List.iter2 (fun h (_, cancel) -> if cancel then Eventq.cancel h) hs spec;
      Eventq.run q;
      let expected =
        List.mapi (fun i (t, cancel) -> (t, i, cancel)) spec
        |> List.filter (fun (_, _, cancel) -> not cancel)
        |> List.sort compare
        |> List.map (fun (_, i, _) -> i)
      in
      List.rev !fired = expected)

(* Against a model while the queue runs: each fired event schedules new
   events and cancels some (pending or not), and the 40th cancels all
   but ten pending events, enough to compact mid-run.  300 initial
   events grow the queue from its first capacity several times over.
   The head must always be the model's earliest (time, scheduling
   order), at that time, with the live count exact. *)
let prop_eventq_model_dynamic =
  QCheck.Test.make
    ~name:"eventq matches a model while callbacks schedule and cancel"
    ~count:30 QCheck.(int_bound 1_000_000)
    (fun seed ->
      let rs = Random.State.make [| seed |] in
      let q = Eventq.create () in
      (* pending events as (time, id); ids count in scheduling order *)
      let pending = ref [] and handles = Hashtbl.create 64 in
      let next_id = ref 0 and fired = ref 0 in
      let compacted = ref false and ok = ref true in
      let cancel id =
        if List.exists (fun (_, i) -> i = id) !pending then
          pending := List.filter (fun (_, i) -> i <> id) !pending;
        Eventq.cancel (Hashtbl.find handles id)
      in
      let rec schedule t =
        let id = !next_id in
        incr next_id;
        pending := (t, id) :: !pending;
        Hashtbl.replace handles id (Eventq.at q t (fun () -> fire id))
      and fire id =
        (match !pending with
        | [] -> ok := false
        | e :: es ->
            let t, i =
              List.fold_left (fun a e -> if compare e a < 0 then e else a) e es
            in
            if i <> id || Eventq.now q <> t then ok := false;
            pending := List.filter (fun (_, j) -> j <> i) !pending);
        incr fired;
        if !fired = 40 then begin
          let before = Eventq.heap_population q in
          List.iteri (fun i (_, id) -> if i >= 10 then cancel id) !pending;
          compacted := Eventq.heap_population q < before
        end
        else begin
          if !next_id < 700 then
            for _ = 1 to Random.State.int rs 4 do
              schedule
                (Int64.add (Eventq.now q)
                   (Int64.of_int (Random.State.int rs 41)))
            done;
          for _ = 1 to Random.State.int rs 3 do
            cancel (Random.State.int rs !next_id)
          done
        end;
        if Eventq.pending_count q <> List.length !pending then ok := false
      in
      for _ = 1 to 300 do
        schedule (Int64.of_int (Random.State.int rs 200))
      done;
      Eventq.run q;
      !ok && !compacted && !pending = []
      && Eventq.pending_count q = 0
      && Eventq.heap_population q = 0)

(* A fired or cancelled action is garbage once it leaves the queue, even
   while the queue itself lives on with other events. *)
let test_eventq_releases_actions () =
  let q = Eventq.create () in
  let arm w ~cancel t =
    let v = ref 0 in
    Weak.set w 0 (Some v);
    let h = Eventq.at q t (fun () -> incr v) in
    if cancel then Eventq.cancel h
  in
  let fired = Weak.create 1 and cancelled = Weak.create 1 in
  (arm [@inlined never]) cancelled ~cancel:true 10L;
  (arm [@inlined never]) fired ~cancel:false 20L;
  ignore (Eventq.at q 1_000L ignore);
  Eventq.run ~until:100L q;
  Gc.full_major ();
  Alcotest.(check bool) "cancelled action collected" false
    (Weak.check cancelled 0);
  Alcotest.(check bool) "fired action collected" false (Weak.check fired 0);
  Alcotest.(check int) "the queue lives on" 1
    (Eventq.pending_count (Sys.opaque_identity q))

let test_eventq_time_range () =
  let q = Eventq.create () in
  let last = Int64.of_int max_int in
  Alcotest.check_raises "beyond max_int"
    (Invalid_argument "Eventq.at: time beyond max_int ns") (fun () ->
      ignore (Eventq.at q (Int64.succ last) ignore));
  Alcotest.(check int) "nothing queued" 0 (Eventq.pending_count q);
  let fired = ref false in
  ignore (Eventq.at q last (fun () -> fired := true));
  Eventq.run q;
  Alcotest.(check bool) "max_int itself fires" true !fired;
  Alcotest.check span "clock at max_int" last (Eventq.now q);
  (* An armed entry takes its time as an int delay, and rejects the
     same range with the same errors.  Firing one before the queue has a
     target raises. *)
  let q = Eventq.create () in
  ignore (Eventq.arm q ~tag:0 1);
  Alcotest.check_raises "armed: no target"
    (Invalid_argument "Eventq: armed entry with no target") (fun () ->
      Eventq.run q);
  let calls = ref [] in
  Eventq.set_target q (fun _ seq -> calls := seq :: !calls);
  ignore (Eventq.at q 10L ignore);
  Eventq.run q;
  Alcotest.check_raises "armed: in the past"
    (Invalid_argument "Eventq.at: scheduling in the past") (fun () ->
      ignore (Eventq.arm q ~tag:0 (-1)));
  Alcotest.check_raises "handle: in the past"
    (Invalid_argument "Eventq.at: scheduling in the past") (fun () ->
      ignore (Eventq.at q 9L ignore));
  Alcotest.check_raises "armed: beyond max_int"
    (Invalid_argument "Eventq.at: time beyond max_int ns") (fun () ->
      ignore (Eventq.arm q ~tag:0 (max_int - 9)));
  Alcotest.check_raises "armed: negative tag"
    (Invalid_argument "Eventq.arm: negative tag") (fun () ->
      ignore (Eventq.arm q ~tag:(-1) 1));
  Alcotest.(check int) "nothing queued" 0 (Eventq.pending_count q);
  let seq = Eventq.arm q ~tag:0 (max_int - 10) in
  Eventq.run q;
  Alcotest.(check (list int)) "max_int itself fires, with its seq" [ seq ]
    !calls;
  Alcotest.check span "clock at max_int" last (Eventq.now q);
  (* A span past the int range raises as a time past it does. *)
  Alcotest.(check int) "span max_int" max_int (Eventq.span_ns last);
  Alcotest.check_raises "span beyond max_int"
    (Invalid_argument "Eventq.at: time beyond max_int ns") (fun () ->
      ignore (Eventq.span_ns (Int64.succ last)));
  Alcotest.check_raises "span below min_int"
    (Invalid_argument "Eventq.at: scheduling in the past") (fun () ->
      ignore (Eventq.span_ns (Int64.pred (Int64.of_int min_int))));
  (* The int clock keeps that range whether the register holds an entry
     or not: an arm or a handle past max_int raises, and a run that
     stops on a horizon past max_int reads back that horizon, after
     which nothing can be queued. *)
  List.iter
    (fun (full, horizon) ->
      let what = if full then "register full" else "register empty" in
      let q = Eventq.create () in
      let calls = ref 0 in
      Eventq.set_target q (fun _ _ -> incr calls);
      ignore (Eventq.at q 10L ignore);
      Eventq.run q;
      if full then ignore (Eventq.arm q ~tag:0 5);
      let queued = Eventq.pending_count q in
      Alcotest.check_raises (what ^ ": arm beyond max_int")
        (Invalid_argument "Eventq.at: time beyond max_int ns") (fun () ->
          ignore (Eventq.arm q ~tag:1 (max_int - 9)));
      Alcotest.check_raises (what ^ ": at beyond max_int")
        (Invalid_argument "Eventq.at: time beyond max_int ns") (fun () ->
          ignore (Eventq.at q (Int64.succ last) ignore));
      Alcotest.(check int) (what ^ ": nothing more queued") queued
        (Eventq.pending_count q);
      Eventq.run ~until:horizon q;
      Alcotest.(check int) (what ^ ": the held entry fired") queued !calls;
      Alcotest.check span (what ^ ": clock at the horizon") horizon
        (Eventq.now q);
      Alcotest.check span (what ^ ": and there again") horizon (Eventq.now q);
      Alcotest.check_raises (what ^ ": no arm after it")
        (Invalid_argument "Eventq.at: time beyond max_int ns") (fun () ->
          ignore (Eventq.arm q ~tag:0 0));
      Alcotest.check_raises (what ^ ": no handle before it")
        (Invalid_argument "Eventq.at: scheduling in the past") (fun () ->
          ignore (Eventq.at q last ignore)))
    [
      (false, Int64.succ last);
      (true, Int64.succ last);
      (false, Int64.max_int);
      (true, Int64.max_int);
    ]

(* Armed entries own no slot, so a handle's slot cannot be taken from
   the heap's size: with armed entries in the heap, slot [size] may be a
   live handle's.  Mix the two, cancel some handles, and fire
   everything: each live handle runs exactly once, no cancelled one
   runs, each armed entry calls the target with its own tag and seq,
   and all of it in time order.  The last round cancels enough handles
   to compact the heap around the armed entries. *)
let test_eventq_armed_and_handles () =
  let q = Eventq.create () in
  let st = Random.State.make [| 27 |] in
  let log = ref [] in
  Eventq.set_target q (fun tag seq ->
      log := (Eventq.now q, `Armed (tag, seq)) :: !log);
  let armed = ref [] and handles = ref [] and cancelled = ref [] in
  for i = 0 to 599 do
    let d = Random.State.int st 40 in
    match Random.State.int st 6 with
    | 0 | 1 ->
        let tag = Random.State.int st 4 in
        armed := (tag, Eventq.arm q ~tag d) :: !armed
    | 2 -> (
        match List.filter (fun (_, h) -> Eventq.is_pending h) !handles with
        | [] -> ()
        | live ->
            let j, h = List.nth live (Random.State.int st (List.length live)) in
            Eventq.cancel h;
            cancelled := j :: !cancelled)
    | 3 -> ignore (Eventq.run_one q)
    | _ ->
        let h =
          Eventq.after q (Int64.of_int d) (fun () ->
              log := (Eventq.now q, `Handle i) :: !log)
        in
        handles := (i, h) :: !handles
  done;
  let doomed =
    List.init 200 (fun j ->
        let h = Eventq.after q (Int64.of_int j) ignore in
        if j mod 10 = 0 then armed := (j, Eventq.arm q ~tag:j j) :: !armed;
        h)
  in
  List.iter Eventq.cancel doomed;
  Alcotest.(check bool) "compacted" true
    (Eventq.heap_population q < Eventq.pending_count q + 200);
  Eventq.run q;
  let log = List.rev !log in
  let ran i = List.length (List.filter (fun (_, e) -> e = `Handle i) log) in
  List.iter
    (fun (i, _) ->
      Alcotest.(check int)
        (Printf.sprintf "handle %d runs %s" i
           (if List.mem i !cancelled then "never" else "once"))
        (if List.mem i !cancelled then 0 else 1)
        (ran i))
    !handles;
  Alcotest.(check (list (pair int int)))
    "each armed entry calls once, with its tag and seq"
    (List.sort compare !armed)
    (List.sort compare
       (List.filter_map
          (function _, `Armed e -> Some e | _, `Handle _ -> None)
          log));
  let times = List.map fst log in
  Alcotest.(check bool) "in time order" true
    (List.sort Int64.compare times = times);
  Alcotest.(check int) "drained" 0 (Eventq.heap_population q)

(* The register against a reference list sorted by (time, seq): a
   random mix of [at], [after], [arm] on four tags (from the target too,
   as the kernel arms an interval's successor there), [cancel],
   [run_one], [time_to_next] and [run ~until].  Each firing must be the
   list's first, at its time; every seq [arm] returns, every
   [time_to_next] (clamped to the horizon inside a run) and every
   [pending_count] must match the list.  The model also follows which
   entry the register holds, so [register_fired] must match it, and it
   counts the register's edges as they come up: an arm that displaces
   the held entry, a heap entry that fires before a held entry at the
   same time because its seq is lower, and a run whose horizon falls
   between the held entry and the heap's top. *)
let test_eventq_register_order () =
  let displaced = ref 0 and ties = ref 0 and split = ref 0 in
  for seed = 1 to 20 do
    let st = Random.State.make [| seed |] in
    let rand n = Random.State.int st n in
    let q = Eventq.create () in
    let fail fmt = Alcotest.failf ("seed %d: " ^^ fmt) seed in
    (* the model: (time, seq, what) for every live entry, the register's
       (time, seq), the clock and the horizon of the run under way *)
    let pending = ref [] and held = ref None in
    let clock = ref 0 and horizon = ref None in
    let next_seq = ref 0 and from_register = ref 0 in
    let handles = ref [] and next_id = ref 0 in
    let earliest = function
      | e :: es -> List.fold_left min e es
      | [] -> invalid_arg "earliest"
    in
    let first () = earliest !pending in
    let expect_next cap =
      let cap =
        match !horizon with
        | Some h when h - !clock < cap -> h - !clock
        | _ -> cap
      in
      match !pending with
      | [] -> cap
      | _ ->
          let t, _, _ = first () in
          min (t - !clock) cap
    in
    let check_next () =
      let cap = rand 50 in
      let got = Eventq.time_to_next q ~cap and want = expect_next cap in
      if got <> want then fail "time_to_next ~cap:%d = %d, want %d" cap got want
    in
    let check_counts () =
      if Eventq.pending_count q <> List.length !pending then
        fail "pending %d, want %d" (Eventq.pending_count q)
          (List.length !pending);
      if Eventq.register_fired q <> !from_register then
        fail "from the register %d, want %d" (Eventq.register_fired q)
          !from_register
    in
    let rec arm tag d =
      let t = !clock + d and seq = !next_seq in
      incr next_seq;
      (match !held with
      | None -> held := Some (t, seq)
      | Some (ht, _) when t < ht ->
          incr displaced;
          held := Some (t, seq)
      | Some _ -> ());
      pending := (t, seq, `Armed (tag, seq)) :: !pending;
      let got = Eventq.arm q ~tag d in
      if got <> seq then fail "arm returned seq %d, want %d" got seq
    and at t =
      let id = !next_id in
      incr next_id;
      pending := (t, !next_seq, `Handle id) :: !pending;
      incr next_seq;
      let action () = fired (`Handle id) in
      let h =
        if rand 2 = 0 then Eventq.at q (Int64.of_int t) action
        else Eventq.after q (Int64.of_int (t - !clock)) action
      in
      handles := (id, h) :: !handles
    and fired what =
      if !pending = [] then fail "a firing with nothing pending";
      let t, seq, w = first () in
      if w <> what then fail "fired out of (time, seq) order at %d" t;
      if Eventq.now q <> Int64.of_int t then
        fail "clock %Ld, want %d" (Eventq.now q) t;
      (match !held with
      | Some (_, hs) when hs = seq ->
          incr from_register;
          held := None
      | Some (ht, _) when ht = t -> incr ties
      | _ -> ());
      clock := t;
      pending := List.filter (fun (_, s, _) -> s <> seq) !pending;
      check_next ();
      if !next_seq < 3_000 && rand 3 = 0 then arm (rand 4) (rand 30)
    in
    Eventq.set_target q (fun tag seq -> fired (`Armed (tag, seq)));
    for _ = 1 to 400 do
      (match rand 10 with
      | 0 | 1 | 2 -> arm (rand 4) (rand 30)
      | 3 | 4 -> at (!clock + rand 30)
      | 5 -> (
          match !handles with
          | [] -> ()
          | hs ->
              let id, h = List.nth hs (rand (List.length hs)) in
              Eventq.cancel h;
              pending :=
                List.filter (fun (_, _, w) -> w <> `Handle id) !pending)
      | 6 | 7 ->
          let want = !pending <> [] in
          if Eventq.run_one q <> want then fail "run_one returned %b" (not want)
      | 8 -> check_next ()
      | _ ->
          let h = !clock + rand 40 in
          (match !held with
          | Some (ht, hs) -> (
              match List.filter (fun (_, s, _) -> s <> hs) !pending with
              | [] -> ()
              | heap ->
                  let top, _, _ = earliest heap in
                  if (ht <= h && h < top) || (top <= h && h < ht) then
                    incr split)
          | None -> ());
          horizon := Some h;
          Eventq.run ~until:(Int64.of_int h) q;
          horizon := None;
          clock := h;
          if Eventq.now q <> Int64.of_int h then
            fail "clock %Ld after a run to %d" (Eventq.now q) h);
      check_counts ()
    done;
    Eventq.run q;
    if !pending <> [] then fail "%d entries never fired" (List.length !pending);
    check_counts ()
  done;
  Alcotest.(check bool)
    (Printf.sprintf "displacements (%d), ties (%d), split horizons (%d)"
       !displaced !ties !split)
    true
    (!displaced > 0 && !ties > 0 && !split > 0)

(* An armed entry that fires from the register allocates nothing: it
   makes no heap entry, and the clock it moves is an int.  10,000
   entries are armed and fired one after another with a no-op target,
   beside a far-off handle in the heap, and every one fires from the
   register. *)
let test_eventq_register_allocates_nothing () =
  let q = Eventq.create () in
  Eventq.set_target q (fun _ _ -> ());
  ignore (Eventq.at q 1_000_000_000L ignore);
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    ignore (Eventq.arm q ~tag:(i land 3) 7 : int);
    ignore (Eventq.run_one q : bool)
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check int) "all from the register" 10_000 (Eventq.register_fired q);
  if words > 0. then
    Alcotest.failf "10,000 armed entries allocated %.0f words" words

let prop_eventq_monotonic =
  QCheck.Test.make ~name:"eventq fires in nondecreasing time order" ~count:100
    QCheck.(list (int_bound 1000))
    (fun delays ->
      let q = Eventq.create () in
      let times = ref [] in
      List.iter
        (fun d ->
          ignore
            (Eventq.at q (Int64.of_int d) (fun () ->
                 times := Eventq.now q :: !times)))
        delays;
      Eventq.run q;
      let ts = List.rev !times in
      let rec mono = function
        | a :: (b :: _ as rest) -> Time.(a <= b) && mono rest
        | _ -> true
      in
      mono ts)

(* ------------------------------ Rng ------------------------------ *)

let test_rng_deterministic () =
  let a = Rng.create ~seed:42L and b = Rng.create ~seed:42L in
  for _ = 1 to 100 do
    Alcotest.(check int) "same stream" (Rng.int a 1000) (Rng.int b 1000)
  done

let test_rng_split_independent () =
  let a = Rng.create ~seed:42L in
  let b = Rng.split a in
  let b_first = Rng.int64 b in
  (* advancing [a] must not change what [b] would have produced *)
  let a' = Rng.create ~seed:42L in
  let b' = Rng.split a' in
  for _ = 1 to 10 do
    ignore (Rng.int64 a')
  done;
  Alcotest.(check bool) "split stream stable" true (Int64.equal b_first (Rng.int64 b'))

let prop_rng_int_bound =
  QCheck.Test.make ~name:"rng int stays in bounds" ~count:500
    QCheck.(pair small_int (int_range 1 1000))
    (fun (seed, bound) ->
      let rng = Rng.create ~seed:(Int64.of_int seed) in
      let v = Rng.int rng bound in
      v >= 0 && v < bound)

let test_rng_exponential_positive () =
  let rng = Rng.create ~seed:7L in
  for _ = 1 to 100 do
    let v = Rng.exponential rng ~mean:10. in
    Alcotest.(check bool) "positive" true (v >= 0.)
  done

let test_rng_shuffle_permutation () =
  let rng = Rng.create ~seed:3L in
  let a = Array.init 20 (fun i -> i) in
  Rng.shuffle rng a;
  let sorted = Array.copy a in
  Array.sort compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 20 (fun i -> i)) sorted

(* ------------------------------ Stats ------------------------------ *)

let test_hist_exact () =
  let h = Stats.Hist.create "h" in
  List.iter (fun x -> Stats.Hist.add h (Int64.of_int x)) [ 10; 20; 30; 40; 50 ];
  Alcotest.(check int) "count" 5 (Stats.Hist.count h);
  Alcotest.(check (float 0.001)) "mean" 30. (Stats.Hist.mean h);
  Alcotest.check span "min" 10L (Stats.Hist.min h);
  Alcotest.check span "max" 50L (Stats.Hist.max h);
  Alcotest.check span "p50" 30L (Stats.Hist.percentile h 0.5);
  Alcotest.check span "p0" 10L (Stats.Hist.percentile h 0.0);
  Alcotest.check span "p100" 50L (Stats.Hist.percentile h 1.0)

let test_hist_decimation () =
  let h = Stats.Hist.create ~capacity:128 "h" in
  for i = 1 to 10_000 do
    Stats.Hist.add h (Int64.of_int i)
  done;
  Alcotest.(check int) "count tracks all" 10_000 (Stats.Hist.count h);
  Alcotest.check span "max exact" 10_000L (Stats.Hist.max h);
  Alcotest.check span "min exact" 1L (Stats.Hist.min h);
  let p50 = Int64.to_float (Stats.Hist.percentile h 0.5) in
  Alcotest.(check bool) "p50 approximately mid" true (p50 > 3000. && p50 < 7000.)

let test_hist_empty () =
  let h = Stats.Hist.create "h" in
  Alcotest.(check bool) "mean nan" true (Float.is_nan (Stats.Hist.mean h));
  Alcotest.check_raises "empty percentile"
    (Invalid_argument "Stats.Hist.percentile: empty") (fun () ->
      ignore (Stats.Hist.percentile h 0.5))

(* ------------------------------ Tracebuf ------------------------------ *)

let record ?(cpu = -1) ?(pid = -1) ?(lwp = -1) ?(name = "") ?(name2 = "")
    ?(arg = -1) ?(arg2 = -1) ?(arg3 = -1) ?(time = 0L) kind =
  { Tracebuf.time; kind; cpu; pid; lwp; name; name2; arg; arg2; arg3 }

let emit t r =
  Tracebuf.emit t ~time:r.Tracebuf.time r.Tracebuf.kind ~cpu:r.Tracebuf.cpu
    ~pid:r.Tracebuf.pid ~lwp:r.Tracebuf.lwp ~name:r.Tracebuf.name
    ~name2:r.Tracebuf.name2 ~arg:r.Tracebuf.arg ~arg2:r.Tracebuf.arg2
    ~arg3:r.Tracebuf.arg3

let test_tracebuf_basic () =
  let t = Tracebuf.create ~capacity:4 () in
  for i = 1 to 6 do
    emit t
      (record ~time:(Int64.of_int i) ~name:(string_of_int i) Tracebuf.Chaos)
  done;
  let recs = Tracebuf.records t in
  Alcotest.(check int) "capacity bounds" 4 (List.length recs);
  Alcotest.(check int) "dropped" 2 (Tracebuf.dropped t);
  Alcotest.(check string) "oldest kept" "3" (Tracebuf.message (List.hd recs))

let test_tracebuf_find_disable () =
  let t = Tracebuf.create () in
  emit t (record ~time:1L ~pid:1 Tracebuf.Stop);
  emit t (record ~time:2L ~pid:1 Tracebuf.Continue);
  Tracebuf.set_enabled t false;
  emit t (record ~time:3L ~pid:1 Tracebuf.Stop);
  Alcotest.(check int) "find stop" 1
    (List.length (Tracebuf.find t ~tag:"stop"));
  Tracebuf.clear t;
  Alcotest.(check int) "cleared" 0 (List.length (Tracebuf.records t))

let test_tracebuf_zero_capacity () =
  Alcotest.check_raises "capacity 0"
    (Invalid_argument "Tracebuf.create: capacity") (fun () ->
      ignore (Tracebuf.create ~capacity:0 ()))

(* Each kind renders to the text its emitter once formatted. *)
let test_tracebuf_render () =
  let open Tracebuf in
  List.iter
    (fun (r, tag, text) ->
      Alcotest.(check (pair string string)) text (tag, text)
        (Tracebuf.tag r, message r))
    [
      ( record ~pid:1 ~lwp:1 ~name:"demo" Spawn,
        "spawn",
        "pid1 (demo) created with lwp1" );
      (record ~cpu:0 ~pid:1 ~lwp:2 Dispatch, "dispatch", "cpu0 <- pid1/lwp2");
      (record ~cpu:1 ~pid:2 ~lwp:3 Preempt, "preempt", "cpu1 drops pid2/lwp3");
      ( record ~pid:1 ~lwp:2 ~name:"pipe" ~arg:1 Sleep,
        "sleep",
        "pid1/lwp2 on pipe (indefinite)" );
      ( record ~pid:1 ~lwp:2 ~name:"nanosleep" ~arg:0 Sleep,
        "sleep",
        "pid1/lwp2 on nanosleep" );
      ( record ~pid:4 ~arg:3 Sigwaiting,
        "sigwaiting",
        "pid4: all 3 LWPs in indefinite waits" );
      (record ~pid:1 ~lwp:2 Lwp_exit, "lwp_exit", "pid1/lwp2");
      (record ~pid:1 ~name:"demo" ~arg:0 Exit, "exit", "pid1 (demo) status=0");
      ( record ~pid:1 ~lwp:2 ~name:"Not_found" Panic,
        "panic",
        "pid1/lwp2 uncaught exception: Not_found" );
      (record ~arg:2 ~arg2:64 ~arg3:3 Ownerdead, "ownerdead", "seg2+64 woke=3");
      (record ~name:"proc-kill" Chaos, "chaos", "proc-kill");
      ( record ~pid:5 ~name:"kv" ~name2:"read" Proc_kill,
        "chaos",
        "proc-kill pid5 (kv) in read" );
      (record ~pid:3 ~lwp:4 Lwp_reap, "chaos", "lwp-reap kills pid3/lwp4");
      (record ~pid:3 Stop, "stop", "pid3 stopped");
      (record ~pid:3 Continue, "continue", "pid3 continued");
      (record ~pid:3 ~name:"SIGUSR1" Signal, "signal", "pid3 <- SIGUSR1");
      ( record ~pid:3 ~lwp:2 ~name:"SIGWAITING" Signal_lwp,
        "signal",
        "pid3/lwp2 <- SIGWAITING" );
      (record ~pid:3 ~name:"child" Exec, "exec", "pid3 becomes child");
      ( record ~pid:1 ~name:"web" ~arg:3 ~arg2:32 Listen,
        "listen",
        "pid1 listens on web backlog=32 fd3" );
      (record ~pid:2 ~name:"web" ~arg:4 Connect, "connect", "pid2 -> web fd4");
      ( record ~pid:2 ~name:"web" Connect_refused,
        "connect",
        "pid2 -> web refused" );
      ( record ~pid:1 ~name:"web" ~arg:5 Accept,
        "accept",
        "pid1 accepts on web -> fd5" );
      (record ~pid:1 ~arg:6 Epoll_create, "epoll", "pid1 epoll_create -> fd6");
      (record ~pid:1 ~arg:2 Shed, "shed", "pid1 sheds a connection (total 2)");
      (record ~name:"hang: 2 threads" Thrsan, "thrsan", "hang: 2 threads");
    ]

(* Against a list model: the ring keeps the last [capacity] records
   emitted while enabled since the last [clear], and counts the rest as
   dropped, across every growth step from empty up to [capacity]. *)
type trace_op = Emit of int | Clear | Enable of bool

let trace_kinds = [| Tracebuf.Dispatch; Tracebuf.Sleep; Tracebuf.Chaos |]

let trace_ops =
  let open QCheck.Gen in
  list_size (int_range 0 1000)
    (frequency
       [
         (40, map (fun k -> Emit k) (int_bound 2));
         (1, return Clear);
         (2, map (fun b -> Enable b) bool);
       ])

let show_trace_op = function
  | Emit k -> string_of_int k
  | Clear -> "clear"
  | Enable b -> if b then "on" else "off"

let prop_tracebuf_model =
  QCheck.Test.make ~name:"tracebuf ring matches a list model" ~count:200
    QCheck.(
      pair (int_range 1 300)
        (make
           ~print:(fun ops -> String.concat " " (List.map show_trace_op ops))
           trace_ops))
    (fun (capacity, ops) ->
      let t = Tracebuf.create ~capacity () in
      (* newest first: what was emitted while enabled since the last clear *)
      let since_clear = ref [] and on = ref true in
      List.iteri
        (fun i op ->
          match op with
          | Emit k ->
              let r = record ~time:(Int64.of_int i) trace_kinds.(k) in
              emit t r;
              if !on then since_clear := r :: !since_clear
          | Clear ->
              Tracebuf.clear t;
              since_clear := []
          | Enable b ->
              Tracebuf.set_enabled t b;
              on := b)
        ops;
      let n = List.length !since_clear in
      let kept =
        List.rev (List.filteri (fun j _ -> j < capacity) !since_clear)
      in
      Tracebuf.records t = kept
      && Tracebuf.find t ~tag:"sleep"
         = List.filter (fun r -> r.Tracebuf.kind = Tracebuf.Sleep) kept
      && Tracebuf.dropped t = n - List.length kept)

(* ------------------------------ Univ ------------------------------ *)

let test_univ_roundtrip () =
  let ki : int Univ.key = Univ.key () in
  let ks : string Univ.key = Univ.key () in
  let u = Univ.pack ki 42 in
  Alcotest.(check (option int)) "same key" (Some 42) (Univ.unpack ki u);
  Alcotest.(check (option string)) "other key" None (Univ.unpack ks u);
  let ki2 : int Univ.key = Univ.key () in
  Alcotest.(check (option int)) "distinct keys of same type" None
    (Univ.unpack ki2 u)

(* --------------------------- Schedctl.take --------------------------- *)

type ent = { id : int; mutable live : bool }

let queue_of specs =
  let q = Queue.create () in
  List.iter (fun (id, live) -> Queue.add { id; live } q) specs;
  q

let ids q = List.rev (Queue.fold (fun acc e -> e.id :: acc) [] q)

let take ?(want = 1) q =
  Option.map
    (fun e -> e.id)
    (Schedctl.take ~site:"test" ~obj:0 ~foot:(fun e -> [ e.id ]) ~want
       ~live:(fun e -> e.live) q)

let test_take_passive () =
  let q = queue_of [ (1, false); (2, false); (3, true); (4, false); (5, true) ] in
  Alcotest.(check (option int)) "first live entry" (Some 3) (take q);
  Alcotest.(check (list int)) "dead fronts dropped, the rest kept" [ 4; 5 ]
    (ids q);
  Alcotest.(check (option int)) "next live entry" (Some 5) (take q);
  Alcotest.(check (option int)) "none left" None (take q);
  Alcotest.(check (list int)) "drained" [] (ids q)

let test_take_driven_choice () =
  let q = queue_of [ (1, false); (2, true); (3, false); (4, true); (5, true) ] in
  Schedctl.begin_run ~vector:[| 1 |];
  let got = take q in
  let log, diverged = Schedctl.end_run () in
  Alcotest.(check (option int)) "the driver's pick" (Some 4) got;
  Alcotest.(check (option string)) "no divergence" None diverged;
  (match log with
  | [ d ] ->
      Alcotest.(check int) "arity counts live entries only" 3 d.Schedctl.d_arity;
      Alcotest.(check (list (list int))) "live candidates in queue order"
        [ [ 2 ]; [ 4 ]; [ 5 ] ]
        (Array.to_list d.Schedctl.d_foot)
  | l -> Alcotest.failf "%d decisions, expected 1" (List.length l));
  Alcotest.(check (list int)) "chosen removed, the rest kept in order"
    [ 2; 3; 5 ] (ids q)

let test_take_want_covers_all () =
  let q = queue_of [ (1, true); (2, false); (3, true) ] in
  Schedctl.begin_run ~vector:[| 1; 1 |];
  let first = take ~want:2 q in
  let second = take q in
  let log, _ = Schedctl.end_run () in
  Alcotest.(check (option int)) "want 2 of 2 live: the front" (Some 1) first;
  Alcotest.(check (option int)) "want 1 of 1 live: the front" (Some 3) second;
  Alcotest.(check int) "no decision recorded" 0 (List.length log)

(* ------------------------------ Prioq ------------------------------ *)

(* Against a list model: one FIFO per level, entries that die lazily
   (a [Kill] marks one dead in place), and passive [take] admitting the
   front live entry of the highest level that has one.  Pushes reach
   only levels 0, 1, 3 and 5, so levels 2, 4 and 6 are never pushed and
   keep the shared empty FIFO.  Every level's contents, [top_below],
   [top] and [length] are compared after every operation, so a push that
   showed up at another level would be caught at once. *)
type pq_op =
  | Push of int * bool
  | Kill of int
  | Peek of int
  | Drop of int
  | Remove of int * int
  | Take

let pq_levels = 7
let pq_pushed = [| 0; 1; 3; 5 |]

let pq_ops =
  let open QCheck.Gen in
  let level = int_bound (pq_levels - 1) in
  list_size (int_range 0 300)
    (frequency
       [
         ( 6,
           map2
             (fun i live -> Push (pq_pushed.(i), live))
             (int_bound (Array.length pq_pushed - 1))
             (frequencyl [ (3, true); (1, false) ]) );
         (2, map (fun id -> Kill id) (int_bound 200));
         (2, map (fun l -> Peek l) level);
         (1, map (fun l -> Drop l) level);
         (1, map2 (fun l id -> Remove (l, id)) level (int_bound 200));
         (3, return Take);
       ])

let show_pq_op = function
  | Push (l, live) -> Printf.sprintf "push%d%s" l (if live then "" else "-dead")
  | Kill id -> Printf.sprintf "kill#%d" id
  | Peek l -> Printf.sprintf "peek%d" l
  | Drop l -> Printf.sprintf "drop%d" l
  | Remove (l, id) -> Printf.sprintf "remove%d#%d" l id
  | Take -> "take"

let prop_prioq_model =
  QCheck.Test.make ~name:"prioq matches a list model" ~count:300
    (QCheck.make
       ~print:(fun ops -> String.concat " " (List.map show_pq_op ops))
       pq_ops)
    (fun ops ->
      let q = Prioq.create ~levels:pq_levels in
      let model = Array.make pq_levels [] (* front first *)
      and ents = Hashtbl.create 64
      and next = ref 0 in
      let live e = e.live in
      let rec drop_dead = function
        | e :: rest when not e.live -> drop_dead rest
        | l -> l
      in
      let ids_of l = List.map (fun e -> e.id) l in
      let model_top_below p =
        let rec go l = if l < 0 || model.(l) <> [] then l else go (l - 1) in
        go (min p (pq_levels - 1))
      in
      let rec model_take l =
        if l < 0 then None
        else
          match drop_dead model.(l) with
          | [] ->
              model.(l) <- [];
              model_take (l - 1)
          | e :: rest ->
              model.(l) <- rest;
              Some e
      in
      let fail i fmt =
        QCheck.Test.fail_reportf ("op %d (%s): " ^^ fmt) i
          (show_pq_op (List.nth ops i))
      in
      let same_entry i what got want =
        if Option.map (fun e -> e.id) got <> Option.map (fun e -> e.id) want
        then fail i "%s differs from the model" what
      in
      List.iteri
        (fun i op ->
          (match op with
          | Push (l, alive) ->
              let e = { id = !next; live = alive } in
              incr next;
              Hashtbl.replace ents e.id e;
              Prioq.push q l e;
              model.(l) <- model.(l) @ [ e ]
          | Kill id -> (
              match Hashtbl.find_opt ents id with
              | Some e -> e.live <- false
              | None -> ())
          | Peek l ->
              let got = Prioq.peek_live q l ~keep:live in
              model.(l) <- drop_dead model.(l);
              same_entry i "peek_live" got
                (match model.(l) with e :: _ -> Some e | [] -> None)
          | Drop l -> (
              match (Prioq.drop_front q l, model.(l)) with
              | (), _ :: rest -> model.(l) <- rest
              | (), [] -> fail i "dropped from an empty level"
              | exception Queue.Empty ->
                  if model.(l) <> [] then fail i "Queue.Empty on a full level")
          | Remove (l, id) ->
              let e =
                match Hashtbl.find_opt ents id with
                | Some e -> e
                | None -> { id = -1; live = true }
              in
              let found = Prioq.remove q l e in
              let rec rm = function
                | [] -> []
                | x :: rest -> if x == e then rest else x :: rm rest
              in
              let in_model = List.memq e model.(l) in
              model.(l) <- rm model.(l);
              if found <> in_model then fail i "remove returned %b" found
          | Take ->
              let got =
                Prioq.take ~site:"test" ~obj:0
                  ~foot:(fun e -> [ e.id ])
                  ~want:1 ~live q
              in
              same_entry i "take" got (model_take (pq_levels - 1)));
          for l = 0 to pq_levels - 1 do
            let got = ids_of (Prioq.live_entries q l ~keep:(fun _ -> true)) in
            if got <> ids_of model.(l) then
              fail i "level %d holds [%s], model [%s]" l
                (String.concat ";" (List.map string_of_int got))
                (String.concat ";" (List.map string_of_int (ids_of model.(l))));
            if Prioq.top_below q l <> model_top_below l then
              fail i "top_below %d is %d, model %d" l (Prioq.top_below q l)
                (model_top_below l)
          done;
          let n = Array.fold_left (fun n l -> n + List.length l) 0 model in
          if Prioq.top q <> model_top_below (pq_levels - 1) then
            fail i "top is %d" (Prioq.top q);
          if Prioq.length q <> n || Prioq.is_empty q <> (n = 0) then
            fail i "length is %d, model %d" (Prioq.length q) n)
        ops;
      true)

let () =
  let qt = QCheck_alcotest.to_alcotest in
  Alcotest.run "sunos_sim"
    [
      ( "time",
        [
          Alcotest.test_case "units" `Quick test_time_units;
          Alcotest.test_case "compare" `Quick test_time_compare;
          Alcotest.test_case "pp" `Quick test_time_pp;
        ] );
      ( "pheap",
        [
          Alcotest.test_case "basic" `Quick test_pheap_basic;
          qt prop_pheap_sorted;
          Alcotest.test_case "top/drop_min" `Quick test_pheap_top_drop;
          qt prop_pheap_top_drop_matches_pop;
        ] );
      ( "eventq",
        [
          Alcotest.test_case "order" `Quick test_eventq_order;
          Alcotest.test_case "fifo ties" `Quick test_eventq_fifo_ties;
          Alcotest.test_case "cancel" `Quick test_eventq_cancel;
          Alcotest.test_case "past rejected" `Quick test_eventq_past_rejected;
          Alcotest.test_case "until" `Quick test_eventq_until;
          Alcotest.test_case "cascade" `Quick test_eventq_cascade;
          Alcotest.test_case "pending exact" `Quick test_eventq_pending_exact;
          Alcotest.test_case "cancel churn" `Quick test_eventq_cancel_churn;
          qt prop_eventq_monotonic;
          Alcotest.test_case "run_one" `Quick test_eventq_run_one;
          Alcotest.test_case "max_events" `Quick test_eventq_max_events;
          Alcotest.test_case "time to next" `Quick test_eventq_time_to_next;
          Alcotest.test_case "same instant from a callback" `Quick
            test_eventq_same_instant_from_callback;
          Alcotest.test_case "drain skims cancelled" `Quick
            test_eventq_drain_skims_cancelled;
          qt prop_eventq_model;
          qt prop_eventq_model_dynamic;
          Alcotest.test_case "fired and cancelled actions are released" `Quick
            test_eventq_releases_actions;
          Alcotest.test_case "time range" `Quick test_eventq_time_range;
          Alcotest.test_case "register order" `Quick
            test_eventq_register_order;
          Alcotest.test_case "register allocates nothing" `Quick
            test_eventq_register_allocates_nothing;
          Alcotest.test_case "armed entries beside handles" `Quick
            test_eventq_armed_and_handles;
          Alcotest.test_case "cancel the next head from a callback" `Quick
            test_eventq_cancel_next_from_callback;
        ] );
      ( "rng",
        [
          Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
          Alcotest.test_case "split" `Quick test_rng_split_independent;
          Alcotest.test_case "exponential" `Quick test_rng_exponential_positive;
          Alcotest.test_case "shuffle" `Quick test_rng_shuffle_permutation;
          qt prop_rng_int_bound;
        ] );
      ( "stats",
        [
          Alcotest.test_case "hist exact" `Quick test_hist_exact;
          Alcotest.test_case "hist decimation" `Quick test_hist_decimation;
          Alcotest.test_case "hist empty" `Quick test_hist_empty;
        ] );
      ( "tracebuf",
        [
          Alcotest.test_case "ring" `Quick test_tracebuf_basic;
          Alcotest.test_case "find/disable" `Quick test_tracebuf_find_disable;
          Alcotest.test_case "capacity 0 rejected" `Quick
            test_tracebuf_zero_capacity;
          Alcotest.test_case "render" `Quick test_tracebuf_render;
          qt prop_tracebuf_model;
        ] );
      ("univ", [ Alcotest.test_case "roundtrip" `Quick test_univ_roundtrip ]);
      ( "schedctl take",
        [
          Alcotest.test_case "passive drops dead fronts, takes the front"
            `Quick test_take_passive;
          Alcotest.test_case "driven chooses among live entries" `Quick
            test_take_driven_choice;
          Alcotest.test_case "want covering all live: no decision" `Quick
            test_take_want_covers_all;
        ] );
      ("prioq", [ qt prop_prioq_model ]);
    ]
