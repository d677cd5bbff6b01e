(* perfbench: the repository benchmark.

     python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

   builds this program and runs it.  BENCHMARK.json lists the workloads
   and metrics.

   --trace 0 reports the end-to-end metrics from untraced iterations of
   the workload, repeated for S seconds.  --trace 1 reports the per-layer
   metrics: the layer microbenchmarks, one exhaustion round of the
   explorer, then untraced and traced (kernel trace ring on) iterations
   in alternation.  Its spans go to perfbench/_out/.

   Every run checks the conservation identities on every iteration.  It
   checks that all iterations of one seed repeat each other exactly, and
   that the workload's reference seed reproduces the figures recorded in
   perfbench/expected.txt.  A failed check names the field and makes the
   result incorrect.  The last line of standard output is the JSON
   result.

   --probe runs the workload once at its larger probe configuration and
   checks that configuration's recorded figures.  --record prints the
   reference seed's figures in expected.txt format. *)

module W = Workload

let workload = ref ""
let seed = ref 1
let seconds = ref 10
let trace = ref 0
let probe = ref false
let record = ref false
let expected_path = "perfbench/expected.txt"
let out_dir = "perfbench/_out"

let spec =
  [
    ("--workload", Arg.Set_string workload, "NAME server-epoll | db-mmap | explore-all");
    ("--seed", Arg.Set_int seed, "N workload seed (explore-all takes none)");
    ("--seconds", Arg.Set_int seconds, "S how long to measure");
    ("--trace", Arg.Set_int trace, "0|1 end-to-end (0) or per-layer (1) metrics");
    ("--probe", Arg.Set probe, " run once at the probe configuration");
    ("--record", Arg.Set record, " print the reference seed's figures");
  ]

let die fmt =
  Printf.ksprintf
    (fun s ->
      prerr_endline ("perfbench: " ^ s);
      exit 2)
    fmt

let median = Layers.median
let per x n = if n = 0 then 0. else float x /. float n

let percentile p xs =
  let a = Array.of_list xs in
  Array.sort compare a;
  let n = Array.length a in
  if n = 0 then 0. else a.(max 0 (int_of_float (Float.ceil (p *. float n)) - 1))

(* ------------------------------ checks ------------------------------------ *)

let problems = ref []
let problem s = problems := s :: !problems

(* expected.txt: "<key> <field> <value>" lines; '#' starts a comment *)
let read_expected path =
  let tbl = Hashtbl.create 8 in
  let ic = try open_in path with Sys_error e -> die "%s" e in
  (try
     while true do
       match String.split_on_char ' ' (String.trim (input_line ic)) with
       | [ key; field; value ] when key.[0] <> '#' ->
           let prev = Option.value ~default:[] (Hashtbl.find_opt tbl key) in
           Hashtbl.replace tbl key (prev @ [ (field, value) ])
       | _ -> ()
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let diff ~what ~want got =
  List.iter
    (fun (field, v) ->
      match List.assoc_opt field got with
      | Some v' when v' = v -> ()
      | Some v' -> problem (Printf.sprintf "%s: %s moved from %s to %s" what field v v')
      | None -> problem (Printf.sprintf "%s: %s missing" what field))
    want;
  List.iter
    (fun (field, _) ->
      if not (List.mem_assoc field want) then
        problem (Printf.sprintf "%s: %s not recorded" what field))
    got

let check_expected expected ~key (o : W.outcome) =
  match Hashtbl.find_opt expected key with
  | None -> problem ("no recorded figures for " ^ key)
  | Some want -> diff ~what:("recorded figures of " ^ key) ~want o.W.model

(* ----------------------------- iterations --------------------------------- *)

type sample = {
  traced : bool;
  dt : float;  (** host seconds *)
  ndt : float;  (** host seconds at reference speed *)
  setup : float;  (** seconds per set-up at reference speed; 0 if not timed *)
  minor : float;  (** minor words *)
  promoted : float;
  majors : int;
  o : W.outcome;
}

let measure (w : W.t) scale ~seed ~traced =
  let g0 = Gc.quick_stat () in
  let t0 = Span.now () in
  let o = Span.time "run" (fun () -> w.W.run scale ~seed ~trace:traced) in
  let t1 = Span.now () in
  let g1 = Gc.quick_stat () in
  List.iter problem o.W.problems;
  {
    traced;
    dt = t1 -. t0;
    ndt = t1 -. t0;
    setup = 0.;
    minor = g1.Gc.minor_words -. g0.Gc.minor_words;
    promoted = g1.Gc.promoted_words -. g0.Gc.promoted_words;
    majors = g1.Gc.major_collections - g0.Gc.major_collections;
    o;
  }

(* Everything a seed fixes, traced or not.  Minor words are left out:
   within one process they drift by up to ~0.5% from iteration to
   iteration, although the first iteration of a fresh process repeats. *)
let exact s = s.o.W.model @ s.o.W.engine

let calibrations = ref []

(* The calibration loop runs on a compacted heap: against the heap a
   workload leaves behind it runs up to 35% slower, which would make the
   normalisation depend on the workload's heap size. *)
let calibrate () =
  Gc.compact ();
  let p = Hostspeed.calibrate () in
  calibrations := p :: !calibrations;
  p

(* The untimed warm-up iteration fixes the figures every later iteration
   of the same seed must repeat. *)
let warm_up w = measure w W.Bench ~seed:!seed ~traced:false

(* [each] until the deadline, each batch normalised by the calibrations
   on either side of it. *)
let iterate ~reference ~until ~min_runs ~each =
  let samples = ref [] and n = ref 0 and before = ref (calibrate ()) in
  while !n < min_runs || Span.now () < until do
    let batch = each () in
    let after = calibrate () in
    let p = (!before +. after) /. 2. in
    before := after;
    List.iter
      (fun s ->
        diff
          ~what:(Printf.sprintf "seed %d iteration %d" !seed !n)
          ~want:(exact reference) (exact s);
        samples :=
          { s with ndt = Hostspeed.scale p s.dt; setup = Hostspeed.scale p s.setup }
          :: !samples)
      batch;
    incr n
  done;
  List.rev !samples

(* The reference seed must reproduce expected.txt; other seeds are
   checked against the identities and their own repetition only. *)
let check_reference expected (w : W.t) reference =
  let o =
    if !seed = w.W.ref_seed || w.W.name = "explore-all" then reference.o
    else (measure w W.Bench ~seed:w.W.ref_seed ~traced:false).o
  in
  check_expected expected ~key:w.W.name o

(* ------------------------------- output ----------------------------------- *)

let finite x =
  if Float.is_finite x then x
  else begin
    problem "a metric is not a finite number";
    0.
  end

let print_result samples metrics =
  let attempted, failed =
    List.fold_left
      (fun (a, f) s -> (a + s.o.W.attempted, f + s.o.W.failed))
      (0, 0) samples
  in
  let m =
    List.map
      (fun (name, unit, v) ->
        Printf.sprintf "%S: {\"value\": %.17g, \"unit\": %S}" name (finite v) unit)
      metrics
  in
  List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) (List.rev !problems);
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    (!problems = [] && failed = 0)
    attempted failed (String.concat ", " m)

let summary (w : W.t) samples =
  Printf.printf "# %s seed %d: %d iterations, %d ops, %.2f s measured\n" w.W.name
    !seed (List.length samples)
    (List.fold_left (fun a s -> a + s.o.W.ops) 0 samples)
    (List.fold_left (fun a s -> a +. s.dt) 0. samples)

(* ---------------------------- end to end ---------------------------------- *)

(* Set-up is what a run does before its first timed call: input
   construction plus one boot at the workload's CPU count.  Each
   iteration is preceded by a block of [per_block] set-ups, whose mean
   includes the collector work the boots' allocations cause; the median
   block is reported.  Process start is left out: it is dominated by
   exec and runtime start-up, which vary by 20% from run to run and which
   the calibration loop does not track. *)
let per_block = 50

let setup_block (w : W.t) =
  let t0 = Span.now () in
  for _ = 1 to per_block do
    w.W.inputs W.Bench ~seed:!seed;
    Layers.boot ~cpus:w.W.cpus
  done;
  (Span.now () -. t0) /. float per_block

(* Peak heap is read after the warm-up iteration, before any set-up block
   or calibration, so it covers the workload and nothing else. *)
let end_to_end expected (w : W.t) =
  let reference = warm_up w in
  let peak_heap_mb =
    float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6
  in
  let until = Span.now () +. float !seconds in
  let samples =
    iterate ~reference ~until ~min_runs:9 ~each:(fun () ->
        let setup = setup_block w in
        [ { (measure w W.Bench ~seed:!seed ~traced:false) with setup } ])
  in
  check_reference expected w reference;
  summary w samples;
  let ops = List.fold_left (fun a s -> a + s.o.W.ops) 0 samples in
  let attempted = List.fold_left (fun a s -> a + s.o.W.attempted) 0 samples in
  print_result samples
    [
      ("setup_s", "s", median (List.map (fun s -> s.setup) samples));
      ("ops_per_s", "op/s", median (List.map (fun s -> float s.o.W.ops /. s.ndt) samples));
      ( "minor_words_per_op",
        "words",
        median (List.map (fun s -> s.minor /. float s.o.W.ops) samples) );
      ("peak_heap_mb", "MB", peak_heap_mb);
      ("completed_frac", "ratio", per ops attempted);
    ]

(* ----------------------------- per layer ---------------------------------- *)

let write_spans () =
  let path =
    Filename.concat out_dir
      (Printf.sprintf "spans-%s-seed%d.json" !workload !seed)
  in
  try
    if not (Sys.file_exists out_dir) then Sys.mkdir out_dir 0o755;
    Span.write path
  with Sys_error e -> prerr_endline ("perfbench: spans not written: " ^ e)

(* The microbenchmarks are scaled by the calibrations on either side of
   them, the other host times by the run's median calibration. *)
let per_layer expected (w : W.t) =
  Span.enabled := true;
  let before = calibrate () in
  let micro = Layers.run ~cpus:w.W.cpus in
  let around = (before +. calibrate ()) /. 2. in
  let micro_norm t = Hostspeed.scale around t in
  let explore_all = w.W.name = "explore-all" in
  (* the explorer's layer figures: explore-all measures them itself *)
  let round =
    if explore_all then None
    else
      Some (Span.time "explore round" (fun () -> W.run_explore W.Bench ~seed:0 ~trace:false))
  in
  let reference = warm_up w in
  let until = Span.now () +. float !seconds in
  let each () =
    let untraced = measure w W.Bench ~seed:!seed ~traced:false in
    if explore_all then [ untraced ]
    else [ untraced; measure w W.Bench ~seed:!seed ~traced:true ]
  in
  let samples = iterate ~reference ~until ~min_runs:3 ~each in
  check_reference expected w reference;
  summary w samples;
  let norm t = Hostspeed.scale (median !calibrations) t in
  let untraced = List.filter (fun s -> not s.traced) samples in
  let traced = List.filter (fun s -> s.traced) samples in
  let o = reference.o in
  let ops = o.W.ops in
  let count g = match o.W.counts with Some c -> g c | None -> 0 in
  let events = count (fun c -> c.W.events) in
  let syscalls = count (fun c -> c.W.syscalls) in
  let utime = count (fun c -> Int64.to_int c.W.utime) in
  let stime = count (fun c -> Int64.to_int c.W.stime) in
  let epoll g = match o.W.epoll with Some e -> g e | None -> 0 in
  let wakeups = epoll (fun e -> e.W.wakeups) in
  let sim g = match o.W.sim with Some s -> g s | None -> 0. in
  let per_event g =
    if events = 0 then 0. else median (List.map (fun s -> g s /. float events) untraced)
  in
  let xo = Option.value round ~default:o in
  let sc_runs = Span.durations "sc_run" in
  let exhausting = Span.total (String.starts_with ~prefix:"exhaust ") in
  let records =
    match traced with
    | { o = { W.counts = Some c; _ }; _ } :: _ -> c.W.trace_records
    | _ -> 0
  in
  (* each traced iteration against the untraced one just before it *)
  let overhead =
    if traced = [] then 0.
    else median (List.map2 (fun u t -> t.dt /. u.dt) untraced traced) -. 1.
  in
  write_spans ();
  print_result samples
    [
      ("eventq.events_per_op", "count", per events ops);
      ("eventq.ns_per_event", "ns/event", per_event (fun s -> s.ndt *. 1e9));
      ("eventq.schedule_fire_ns", "ns", micro_norm micro.Layers.schedule_fire_ns);
      ("eventq.cancel_rearm_ns", "ns", micro_norm micro.Layers.cancel_rearm_ns);
      ("pheap.insert_pop_ns", "ns", micro_norm micro.Layers.insert_pop_ns);
      ("prioq.push_pick_ns", "ns", micro_norm micro.Layers.push_pick_ns);
      ("uctx.effect_roundtrip_ns", "ns", micro_norm micro.Layers.effect_roundtrip_ns);
      ("kernel.syscalls_per_op", "count", per syscalls ops);
      ("kernel.events_per_syscall", "ratio", per events syscalls);
      ("kernel.dispatches_per_op", "count", per (count (fun c -> c.W.dispatches)) ops);
      ("kernel.preemptions_per_op", "count", per (count (fun c -> c.W.preemptions)) ops);
      ("kernel.sigwaiting_per_op", "count", per (count (fun c -> c.W.sigwaiting)) ops);
      ("kernel.lwp_creates", "count", float (count (fun c -> c.W.lwp_creates)));
      ("kernel.stime_frac", "ratio", per stime (utime + stime));
      ("kernel.boot_us", "us", micro_norm micro.Layers.boot_us);
      ("epoll.wakeups_per_op", "count", per wakeups ops);
      ("epoll.delivered_per_wakeup", "ratio", per (epoll (fun e -> e.W.delivered)) wakeups);
      ( "epoll.coalesced_frac",
        "ratio",
        per (epoll (fun e -> e.W.coalesced)) (epoll (fun e -> e.W.edges)) );
      ("libthread.handoff_ns", "ns", micro_norm micro.Layers.handoff_ns);
      ("libthread.switches_per_handoff", "ratio", micro.Layers.switches_per_handoff);
      ("fs.majflt_per_op", "count", per (count (fun c -> c.W.majflt)) ops);
      ("explore.schedules_per_exhaust", "count", per xo.W.explored xo.W.attempted);
      ("explore.pruned_frac", "ratio", per xo.W.pruned (xo.W.explored + xo.W.pruned));
      ( "explore.driver_frac",
        "ratio",
        if exhausting = 0. then 0.
        else 1. -. (Span.total (String.equal "sc_run") /. exhausting) );
      ("explore.schedule_p50_ms", "ms", norm (percentile 0.5 sc_runs) *. 1e3);
      ("explore.schedule_p99_ms", "ms", norm (percentile 0.99 sc_runs) *. 1e3);
      ("gc.minor_words_per_event", "words", per_event (fun s -> s.minor));
      ( "gc.promoted_frac",
        "ratio",
        median (List.map (fun s -> s.promoted /. s.minor) untraced) );
      ( "gc.major_collections",
        "count",
        median (List.map (fun s -> float s.majors) untraced) );
      ("trace.overhead_frac", "ratio", overhead);
      ("trace.records_per_op", "count", per records ops);
      ("sim.p50_ms", "sim-ms", sim (fun s -> s.W.p50_ms));
      ("sim.p99_ms", "sim-ms", sim (fun s -> s.W.p99_ms));
      ("sim.makespan_s", "sim-s", sim (fun s -> s.W.makespan_s));
      ("sim.samples", "count", float (Option.fold ~none:0 ~some:(fun s -> s.W.samples) o.W.sim));
    ]

(* ------------------------------- probe ------------------------------------ *)

let key (w : W.t) = if !probe then w.W.name ^ "@probe" else w.W.name

let record_figures (w : W.t) =
  let scale = if !probe then W.Probe else W.Bench in
  let s = measure w scale ~seed:w.W.ref_seed ~traced:false in
  List.iter (fun (f, v) -> Printf.printf "%s %s %s\n" (key w) f v) s.o.W.model

(* One run at the probe configuration, printed in full.  Exit status 1
   when a figure moved or an identity broke. *)
let probe_run expected (w : W.t) =
  let s = measure w W.Probe ~seed:w.W.ref_seed ~traced:false in
  check_expected expected ~key:(key w) s.o;
  Printf.printf "# %s probe, seed %d: %.3f s host, %.1f M minor words, %.1f MB peak heap\n"
    w.W.name w.W.ref_seed s.dt (s.minor /. 1e6)
    (float ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1e6);
  List.iter (fun (f, v) -> Printf.printf "%s %s\n" f v) (s.o.W.model @ s.o.W.engine);
  List.iter (fun p -> prerr_endline ("perfbench: " ^ p)) (List.rev !problems);
  exit (if !problems = [] then 0 else 1)

let () =
  Arg.parse spec (fun a -> die "unexpected argument %s" a)
    "perfbench --workload NAME --seed N --seconds S --trace 0|1";
  let w =
    match W.find !workload with
    | Some w -> w
    | None -> die "unknown workload %S" !workload
  in
  if !seconds < 1 then die "--seconds must be at least 1";
  if !record then record_figures w
  else
    let expected = read_expected expected_path in
    if !probe then probe_run expected w
    else
      match !trace with
      | 0 -> end_to_end expected w
      | 1 -> per_layer expected w
      | n -> die "--trace must be 0 or 1, not %d" n
