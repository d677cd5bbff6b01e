(* The parallel-array scenario from the paper's "why have both threads
   and LWPs" section: with compute-bound work, it is better to have one
   thread per processor, each bound to its own LWP, than many unbound
   threads paying user-level switches for nothing.

   Run with:  dune exec examples/parallel_array.exe *)

module A = Sunos_workloads.Array_compute

let () =
  let cpus = 4 in
  Format.printf
    "Parallel array (%d CPUs): %d rows x %d sweeps, %dus per row@\n@\n" cpus
    A.default_params.A.rows A.default_params.A.sweeps
    A.row_compute_us;
  List.iter
    (fun (label, mode) ->
      let r = A.run ~cpus { A.default_params with mode } in
      Format.printf "%-24s %a@\n" label A.pp_results r)
    [
      ("unbound, 64 threads", A.Unbound 64);
      ("unbound, 16 threads", A.Unbound 16);
      ("unbound, 4 threads", A.Unbound 4);
      ("bound, 1/CPU", A.Bound);
      ("bound + gang class", A.Bound_gang);
    ];
  Format.printf
    "@\nWith spinning barriers and a competing CPU hog (gang scheduling \
     matters):@\n";
  List.iter
    (fun (label, mode) ->
      let r =
        A.run ~cpus ~background_load:true
          { A.default_params with mode; spin_barrier = true }
      in
      Format.printf "%-24s %a@\n" label A.pp_results r)
    [ ("bound, 1/CPU", A.Bound); ("bound + gang class", A.Bound_gang) ];
  Format.printf
    "@\nReading: dividing rows among fewer threads (one per LWP/CPU) \
     removes pointless@\nthread switches, exactly the paper's argument \
     for programmer-controlled binding.@."
