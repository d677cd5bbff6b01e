(* Benchmark harness: regenerates every figure in the paper plus the
   ablations in EXPERIMENTS.md.

     dune exec bench/main.exe                 # everything
     dune exec bench/main.exe -- fig5         # one figure
     dune exec bench/main.exe -- -j 4         # everything, 4 worker domains
     dune exec bench/main.exe -- --label=pr9 wallclock-scaling
     dune exec bench/main.exe -- list         # available targets *)

let targets : (string * string * (unit -> unit)) list =
  [
    ("fig1", "sync variables in shared memory / mapped files", Figures.fig1);
    ("fig2", "LWPs running threads (pick/run/save trace)", Figures.fig2);
    ("fig3", "the five process configurations", Figures.fig3);
    ("fig4", "thread interface conformance", Figures.fig4);
    ("fig5", "thread creation time", fun () -> ignore (Figures.fig5 ()));
    ("fig6", "thread synchronization time", fun () -> ignore (Figures.fig6 ()));
    ( "server-scaling",
      "socket server: connection count and CPU scaling",
      fun () -> Figures.server_scaling () );
    ( "server-scaling-smoke",
      "fast variant of server-scaling for the test suite",
      fun () -> Figures.server_scaling ~smoke:true () );
    ( "c100k",
      "connections on a log axis vs readiness mechanism (epoll vs poll)",
      fun () -> Figures.c100k () );
    ( "c100k-smoke",
      "fast variant of c100k for the test suite",
      fun () -> Figures.c100k ~smoke:true () );
    ( "kv-store",
      "sharded kv store over robust process-shared locks",
      fun () -> Figures.kv_store () );
    ( "kv-store-smoke",
      "fast variant of kv-store for the test suite",
      fun () -> Figures.kv_store ~smoke:true () );
    ("ablation-models", "M:N vs 1:1 vs user-only vs activations", Ablations.models);
    ("ablation-sigwaiting", "SIGWAITING deadlock avoidance", Ablations.sigwaiting);
    ("ablation-mutex", "spin vs sleep vs adaptive mutexes", Ablations.mutexes);
    ("ablation-fork", "fork vs fork1 vs LWP count", Ablations.forks);
    ("ablation-array", "array thread placement & gang", Ablations.array);
    ("ablation-sched", "timeshare quantum responsiveness", Ablations.sched);
    ("ablation-microtask", "raw-LWP language runtime vs bound threads", Ablations.microtask);
    ("ablation-broadcast", "single signal delivery vs Chorus broadcast", Ablations.broadcast);
    ( "ablation-coalesce",
      "run-ahead charge coalescing, off vs on",
      fun () -> Ablations.coalesce () );
    ( "ablation-coalesce-smoke",
      "fast coalescing off vs on: checks simulated results are unchanged",
      fun () -> Ablations.coalesce ~smoke:true () );
    ( "ablation-chaos",
      "fault-rate sweep: hardened server degradation under chaos",
      fun () -> Ablations.chaos () );
    ( "ablation-chaos-smoke",
      "fast chaos sweep: checks request conservation under fault injection",
      fun () -> Ablations.chaos ~smoke:true () );
    ( "ablation-kv-chaos",
      "proc-kill sweep: kv store recovery via robust shard locks",
      fun () -> Ablations.kv_chaos () );
    ( "ablation-kv-chaos-smoke",
      "fast proc-kill sweep: checks put/get conservation and recovery",
      fun () -> Ablations.kv_chaos ~smoke:true () );
    ( "wallclock-scaling",
      "wall-clock of engine-stressing workloads; appends to BENCH_wallclock.json",
      Wallclock.scaling );
    ( "wallclock-smoke",
      "reduced-scale wallclock sections with time and allocation gates",
      Wallclock.smoke );
  ]

(* Run the selected targets on [jobs] worker domains.  Each simulated
   machine is single-threaded and domain-confined (all cross-machine
   state is DLS or atomic), so whole targets parallelize freely; output
   stays readable because of Bout.capture — workers buffer their report
   and the results print in target order.  Simulated figures are
   identical to a `-j 1` run; only wall-clock and GC readings move, as
   co-running domains share the machine. *)
let run_parallel jobs selected =
  let n = Array.length selected in
  let out = Array.make n "" in
  let next = Atomic.make 0 in
  let worker () =
    let rec loop () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        let _, _, f = selected.(i) in
        out.(i) <- Bout.capture f;
        loop ()
      end
    in
    loop ()
  in
  let domains =
    List.init (min jobs n) (fun _ -> Domain.spawn worker)
  in
  List.iter Domain.join domains;
  Array.iter print_string out;
  flush stdout

let run jobs selected =
  if jobs <= 1 then Array.iter (fun (_, _, f) -> f ()) selected
  else run_parallel jobs selected

let () =
  let jobs = ref 1 in
  let names = ref [] in
  let list_only = ref false in
  let rec parse = function
    | [] -> ()
    | "-j" :: n :: rest ->
        jobs := max 1 (int_of_string n);
        parse rest
    | arg :: rest when String.length arg > 8 && String.sub arg 0 8 = "--label=" ->
        Wallclock.label := String.sub arg 8 (String.length arg - 8);
        parse rest
    | "list" :: rest ->
        list_only := true;
        parse rest
    | name :: rest ->
        names := name :: !names;
        parse rest
  in
  parse (List.tl (Array.to_list Sys.argv));
  if !list_only then
    List.iter (fun (n, d, _) -> Printf.printf "%-24s %s\n" n d) targets
  else begin
    let selected =
      match List.rev !names with
      | [] ->
          Printf.printf
            "SunOS Multi-thread Architecture reproduction — benchmark suite\n";
          Printf.printf
            "(simulated SPARCstation 1+ cost model; paper values alongside)\n";
          Array.of_list targets
      | names ->
          Array.of_list
            (List.map
               (fun name ->
                 match List.find_opt (fun (n, _, _) -> n = name) targets with
                 | Some t -> t
                 | None ->
                     Printf.eprintf
                       "unknown target %S (try: dune exec bench/main.exe -- \
                        list)\n"
                       name;
                     exit 1)
               names)
    in
    run !jobs selected
  end
