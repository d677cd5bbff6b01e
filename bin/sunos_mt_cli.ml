(* Command-line driver: run the workloads on a chosen thread architecture
   with chosen machine parameters, inspect /proc, dump traces.

     dune exec bin/sunos_mt_cli.exe -- windows --model mt --widgets 200
     dune exec bin/sunos_mt_cli.exe -- server --model liblwp
     dune exec bin/sunos_mt_cli.exe -- database --processes 4
     dune exec bin/sunos_mt_cli.exe -- array --mode bound --cpus 8
     dune exec bin/sunos_mt_cli.exe -- ps
     dune exec bin/sunos_mt_cli.exe -- trace *)

open Cmdliner
module Time = Sunos_sim.Time
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module W = Sunos_workloads.Window_system
module S = Sunos_workloads.Net_server
module D = Sunos_workloads.Database
module A = Sunos_workloads.Array_compute
module Chaos_report = Sunos_workloads.Chaos_report

(* ------------------------- common options ------------------------- *)

let model_arg =
  let models = List.map (fun (module M : Sunos_baselines.Model.S) -> M.name)
      Sunos_baselines.Model.all in
  let doc =
    Printf.sprintf "Thread architecture: one of %s."
      (String.concat ", " models)
  in
  Arg.(value & opt string "mt" & info [ "model" ] ~docv:"MODEL" ~doc)

let cpus_arg default =
  Arg.(value & opt int default
       & info [ "cpus" ] ~docv:"N" ~doc:"Simulated processors.")

let seed_arg =
  Arg.(value & opt int 11 & info [ "seed" ] ~docv:"SEED" ~doc:"Workload seed.")

let resolve_model name =
  match Sunos_baselines.Model.by_name name with
  | Some m -> m
  | None ->
      Printf.eprintf "unknown model %S\n" name;
      Stdlib.exit 2

(* ------------------------- windows ------------------------- *)

let windows model cpus widgets events interarrival seed =
  let (module M) = resolve_model model in
  let p =
    {
      W.widgets;
      events;
      mean_interarrival_us = interarrival;
      seed = Int64.of_int seed;
    }
  in
  let r =
    W.run (module M) ~cpus ~debrief:Chaos_report.debrief_if_enabled p
  in
  Format.printf "windows/%s: %a@." M.name W.pp_results r

let windows_cmd =
  let widgets =
    Arg.(value & opt int 100 & info [ "widgets" ] ~doc:"Widget count.")
  in
  let events =
    Arg.(value & opt int 500 & info [ "events" ] ~doc:"Input events.")
  in
  let inter =
    Arg.(value & opt int 1500
         & info [ "interarrival-us" ] ~doc:"Mean event interarrival (us).")
  in
  Cmd.v
    (Cmd.info "windows" ~doc:"The window-system workload (paper intro).")
    Term.(
      const windows $ model_arg $ cpus_arg 2 $ widgets $ events $ inter
      $ seed_arg)

(* ------------------------- server ------------------------- *)

let server model cpus connections requests_per_conn think disk_every workers
    hardened seed =
  let (module M) = resolve_model model in
  let p =
    {
      S.default_params with
      connections;
      requests_per_conn;
      think_time_us = think;
      disk_every;
      workers;
      (* the hardened preset, sized for the demo scale: bounded connect
         retry, a 250ms reply deadline and shedding once the queue is
         two bursts deep *)
      connect_retry_limit = (if hardened then 10 else 0);
      request_deadline_us = (if hardened then 250_000 else 0);
      shed_queue_limit = (if hardened then 2 * workers else 0);
      seed = Int64.of_int seed;
    }
  in
  let r =
    S.run (module M) ~cpus ~debrief:Chaos_report.debrief_if_enabled p
  in
  Format.printf "server/%s: %a@." M.name S.pp_results r

let server_cmd =
  let connections =
    Arg.(value & opt int 40
         & info [ "connections" ] ~doc:"Concurrent client connections.")
  in
  let requests =
    Arg.(value & opt int 3
         & info [ "requests-per-conn" ] ~doc:"Requests per connection.")
  in
  let think =
    Arg.(value & opt int 2000
         & info [ "think-us" ] ~doc:"Mean client think time (us).")
  in
  let disk =
    Arg.(value & opt int 4
         & info [ "disk-every" ] ~doc:"Every n-th request reads cold.")
  in
  let workers =
    Arg.(value & opt int 8
         & info [ "workers" ] ~doc:"Server worker-pool size.")
  in
  let hardened =
    Arg.(value & flag
         & info [ "hardened" ]
             ~doc:
               "Bounded retry, reply deadlines and load shedding — for \
                runs under SUNOS_CHAOS fault injection.")
  in
  Cmd.v
    (Cmd.info "server"
       ~doc:"The event-driven network-server workload (paper intro).")
    Term.(
      const server $ model_arg $ cpus_arg 1 $ connections $ requests $ think
      $ disk $ workers $ hardened $ seed_arg)

(* ------------------------- database ------------------------- *)

let database cpus processes threads records txns seed =
  let p =
    {
      D.default_params with
      processes;
      threads_per_process = threads;
      records;
      transactions_per_thread = txns;
      seed = Int64.of_int seed;
    }
  in
  let r = D.run ~cpus ~debrief:Chaos_report.debrief_if_enabled p in
  Format.printf "database: %a@." D.pp_results r

let database_cmd =
  let processes =
    Arg.(value & opt int 2 & info [ "processes" ] ~doc:"Server processes.")
  in
  let threads =
    Arg.(value & opt int 8
         & info [ "threads" ] ~doc:"Worker threads per process.")
  in
  let records =
    Arg.(value & opt int 32 & info [ "records" ] ~doc:"Records (locks).")
  in
  let txns =
    Arg.(value & opt int 25
         & info [ "txns" ] ~doc:"Transactions per thread.")
  in
  Cmd.v
    (Cmd.info "database"
       ~doc:"The database workload: record locks in a mapped file (Fig 1).")
    Term.(
      const database $ cpus_arg 2 $ processes $ threads $ records $ txns
      $ seed_arg)

(* ------------------------- array ------------------------- *)

let array cpus mode threads spin load =
  let mode =
    match mode with
    | "unbound" -> A.Unbound threads
    | "bound" -> A.Bound
    | "gang" -> A.Bound_gang
    | m ->
        Printf.eprintf "unknown mode %S (unbound|bound|gang)\n" m;
        Stdlib.exit 2
  in
  let r =
    A.run ~cpus ~background_load:load
      { A.default_params with mode; spin_barrier = spin }
  in
  Format.printf "array: %a@." A.pp_results r

let array_cmd =
  let mode =
    Arg.(value & opt string "bound"
         & info [ "mode" ] ~doc:"unbound | bound | gang.")
  in
  let threads =
    Arg.(value & opt int 16
         & info [ "threads" ] ~doc:"Thread count for unbound mode.")
  in
  let spin =
    Arg.(value & flag & info [ "spin" ] ~doc:"Spin at the sweep barrier.")
  in
  let load =
    Arg.(value & flag
         & info [ "load" ] ~doc:"Add a competing CPU-bound process.")
  in
  Cmd.v
    (Cmd.info "array" ~doc:"The parallel-array workload (bound vs unbound).")
    Term.(const array $ cpus_arg 4 $ mode $ threads $ spin $ load)

(* ------------------------- microtask ------------------------- *)

let microtask cpus mode workers grain doalls =
  let module M = Sunos_workloads.Microtask in
  let mode =
    match mode with
    | "raw" -> M.Raw_lwps
    | "threads" -> M.Bound_threads
    | m ->
        Printf.eprintf "unknown mode %S (raw|threads)\n" m;
        Stdlib.exit 2
  in
  let r = M.run ~cpus { M.mode; workers; grain_us = grain; doalls } in
  Format.printf "microtask: %a@." M.pp_results r

let microtask_cmd =
  let mode =
    Arg.(value & opt string "raw" & info [ "mode" ] ~doc:"raw | threads.")
  in
  let workers =
    Arg.(value & opt int 4 & info [ "workers" ] ~doc:"Worker contexts.")
  in
  let grain =
    Arg.(value & opt int 200
         & info [ "grain-us" ] ~doc:"Compute per loop iteration (us).")
  in
  let doalls =
    Arg.(value & opt int 5 & info [ "doalls" ] ~doc:"Parallel loops to run.")
  in
  Cmd.v
    (Cmd.info "microtask"
       ~doc:"Fortran-style DOALL on raw LWPs (the paper's language-runtime \
             use of the LWP interface).")
    Term.(const microtask $ cpus_arg 4 $ mode $ workers $ grain $ doalls)

(* ------------------------- ps / trace ------------------------- *)

(* A fixed demo scene so ps/trace have something to show. *)
let demo_scene () =
  let k = Kernel.boot ~cpus:2 () in
  ignore
    (Kernel.spawn k ~name:"demo"
       ~main:
         (Sunos_threads.Libthread.boot (fun () ->
              let module T = Sunos_threads.Thread in
              T.setconcurrency 2;
              let ts =
                List.init 4 (fun i ->
                    T.create ~flags:[ T.THREAD_WAIT ] (fun () ->
                        Uctx.sleep (Time.ms (10 * (i + 1)))))
              in
              let b =
                T.create
                  ~flags:[ T.THREAD_BIND_LWP; T.THREAD_WAIT ]
                  (fun () -> Uctx.charge (Time.ms 30))
              in
              List.iter (fun t -> ignore (T.wait ~thread:t ())) (b :: ts))));
  ignore
    (Kernel.spawn k ~name:"sleeper" ~main:(fun () -> Uctx.sleep (Time.ms 25)));
  k

let ps () =
  let k = demo_scene () in
  Kernel.run ~until:(Time.ms 15) k;
  Format.printf "--- /proc snapshot at %a ---@." Time.pp (Kernel.now k);
  Format.printf "%a" Sunos_kernel.Procfs.pp k;
  (* the debugger's merged view: kernel LWPs + the library thread table *)
  (match Sunos_threads.Debugger.snapshot k 1 with
  | Ok s ->
      Format.printf "--- debugger view (/proc + libthread tables) ---@.%a"
        Sunos_threads.Debugger.pp_snapshot s
  | Error _ -> ());
  Kernel.run k;
  Format.printf "--- final ---@.%a" Sunos_kernel.Procfs.pp k

let ps_cmd =
  Cmd.v
    (Cmd.info "ps" ~doc:"Run a demo scene and print /proc snapshots.")
    Term.(const ps $ const ())

let trace n =
  let k = demo_scene () in
  Kernel.run k;
  let records = Kernel.trace_records k in
  let total = List.length records in
  Format.printf "--- %d of %d trace records ---@." (min n total) total;
  List.iteri
    (fun i r ->
      if i < n then
        Format.printf "[%a] %-10s %s@." Time.pp r.Sunos_sim.Tracebuf.time
          (Sunos_sim.Tracebuf.tag r)
          (Sunos_sim.Tracebuf.message r))
    records

let trace_cmd =
  let n =
    Arg.(value & opt int 60 & info [ "n" ] ~doc:"Records to print.")
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run a demo scene and dump the kernel trace.")
    Term.(const trace $ n)

(* ------------------------- explore / replay ------------------------- *)

module Explore = Sunos_sim.Explore
module Scenarios = Sunos_workloads.Explore_scenarios

let pp_vector v =
  String.concat " " (List.map string_of_int (Array.to_list v))

let explore name max_schedules no_dpor stop_first =
  if name = "" then begin
    Format.printf "scenarios:@.";
    List.iter
      (fun sc ->
        Format.printf "  %-18s %s%s@." sc.Scenarios.sc_name
          sc.Scenarios.sc_descr
          (if sc.Scenarios.sc_expect_fail then "  [expected failures]" else ""))
      Scenarios.all
  end
  else
    match Scenarios.find name with
    | None ->
        Printf.eprintf "unknown scenario %S (try `explore' with no name)\n"
          name;
        Stdlib.exit 2
    | Some sc ->
        let st =
          Scenarios.explore ~dpor:(not no_dpor) ~max_schedules
            ~stop_on_first_failure:stop_first sc
        in
        Format.printf
          "%s: explored %d schedules, pruned %d, max depth %d%s: %d failing@."
          name st.Explore.explored st.Explore.pruned st.Explore.max_decisions
          (if st.Explore.capped then " (budget hit)" else "")
          (List.length st.Explore.failures);
        List.iteri
          (fun i f ->
            if i < 5 then
              Format.printf "  fail: %s  vector: %s@." f.Explore.f_reason
                (pp_vector f.Explore.f_vector))
          st.Explore.failures;
        (if st.Explore.failures <> [] && not sc.Scenarios.sc_expect_fail then
           Format.printf "repro written: %s@."
             (Explore.repro_path ~scenario:name));
        (* exit 1 when the result contradicts the scenario's expectation *)
        let ok =
          if sc.Scenarios.sc_expect_fail then st.Explore.failures <> []
          else st.Explore.failures = []
        in
        if not ok then Stdlib.exit 1

let explore_cmd =
  let scenario =
    Arg.(value & pos 0 string ""
         & info [] ~docv:"SCENARIO"
             ~doc:"Scenario to exhaust (omit to list them).")
  in
  let max_schedules =
    Arg.(value & opt int 100_000
         & info [ "max-schedules" ] ~docv:"N"
             ~doc:"Schedule budget before giving up.")
  in
  let no_dpor =
    Arg.(value & flag
         & info [ "no-dpor" ]
             ~doc:"Disable the footprint partial-order reduction \
                   (explore the raw tree).")
  in
  let stop_first =
    Arg.(value & flag
         & info [ "first" ] ~doc:"Stop at the first failing schedule.")
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Exhaustively explore a sync scenario's schedules (DPOR model \
             checking over the deterministic engine).")
    Term.(const explore $ scenario $ max_schedules $ no_dpor $ stop_first)

let replay file =
  let scenario, vector =
    try Explore.read_repro file
    with Failure m | Sys_error m ->
      Printf.eprintf "cannot read repro %S: %s\n" file m;
      Stdlib.exit 2
  in
  match Scenarios.find scenario with
  | None ->
      Printf.eprintf "repro names unknown scenario %S\n" scenario;
      Stdlib.exit 2
  | Some sc -> (
      Format.printf "replaying %s under vector: %s@." scenario
        (pp_vector vector);
      let outcome, diverged = Scenarios.replay sc ~vector in
      (match diverged with
      | Some d -> Format.printf "note: schedule divergence: %s@." d
      | None -> ());
      match outcome with
      | Explore.Pass ->
          Format.printf "%s: PASS under the recorded schedule@." scenario
      | Explore.Fail reason ->
          Format.printf "%s: FAIL reproduced: %s@." scenario reason;
          Stdlib.exit 1)

let replay_cmd =
  let file =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"REPRO"
             ~doc:"An explore-failure-<scenario>.repro file.")
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Replay a failing schedule recorded by the explorer; exits 1 if \
             the failure reproduces.")
    Term.(const replay $ file)

(* ------------------------- main ------------------------- *)

let () =
  let info =
    Cmd.info "sunos-mt" ~version:"1.0"
      ~doc:
        "Simulated SunOS multi-thread architecture (USENIX Winter '91 \
         reproduction)."
  in
  Stdlib.exit
    (Cmd.eval
       (Cmd.group info
          [ windows_cmd; server_cmd; database_cmd; array_cmd; microtask_cmd;
            ps_cmd; trace_cmd; explore_cmd; replay_cmd ]))
