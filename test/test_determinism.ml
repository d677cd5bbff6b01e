(* Same-seed determinism: each golden configuration's run as text, the
   events the engine fired (in all, by kind, then how many from the
   event queue's register) and then Golden.lines.
   dune diffs this output against test_determinism.expected, and
   @sanitize diffs it again with THRSAN=1, so a moved figure shows up as
   a diff line that names the record.

   Every run boots with the fault injector explicitly off, so the file
   also pins that chaos off is inert, whatever SUNOS_CHAOS says.  The
   last section pins the light profile's fault schedule on the hardened
   server: the faults per site, then how its requests ended.

   After an intentional change to a figure, run `dune runtest`, read the
   diff and accept it with `dune promote`. *)

module Kernel = Sunos_kernel.Kernel
module Faultgen = Sunos_sim.Faultgen
module S = Sunos_workloads.Net_server

let section name k =
  Printf.printf "== %s\n%s\n" name (Golden.events k);
  List.iter print_endline (Golden.lines k)

let off = Faultgen.off

let () =
  ignore (Golden.server ~chaos:off Golden.net (section "net"));
  ignore (Golden.server ~chaos:off Golden.net_epoll (section "net-epoll"));
  ignore (Golden.database ~chaos:off Golden.db (section "db"));
  ignore (Golden.kv_store ~chaos:off (Golden.kv ~procs:2) (section "kv"));
  print_endline "== light-chaos";
  let r =
    Golden.server ~chaos:Faultgen.light Golden.hardened (fun k ->
        List.iter
          (fun (site, n) -> Printf.printf "%s %d\n" site n)
          (Kernel.chaos_counts k))
  in
  Printf.printf "served=%d shed=%d aborted=%d\n" r.S.served r.S.shed
    r.S.aborted
