(* Acceptance tests for the paper's measured figures: the *shape* of
   Figures 5 and 6 must hold — who wins, by roughly what factor — with
   generous tolerances so legitimate cost-model adjustments don't break
   the build, while regressions that flip an ordering do. *)

module MB = Sunos_workloads.Microbench

let within ~tol expected actual =
  Float.abs (actual -. expected) <= tol *. expected

let test_figure5_shape () =
  let r = MB.creation () in
  (* paper: 56us unbound, 2327us bound, ratio 42 *)
  Alcotest.(check bool)
    (Printf.sprintf "unbound create ~56us (got %.0f)" r.MB.unbound_us)
    true
    (within ~tol:0.25 56. r.MB.unbound_us);
  Alcotest.(check bool)
    (Printf.sprintf "bound create ~2327us (got %.0f)" r.MB.bound_us)
    true
    (within ~tol:0.25 2327. r.MB.bound_us);
  let ratio = r.MB.bound_us /. r.MB.unbound_us in
  Alcotest.(check bool)
    (Printf.sprintf "ratio ~42 (got %.1f)" ratio)
    true
    (ratio > 20. && ratio < 80.)

let test_figure6_shape () =
  let r = MB.sync () in
  (* paper: 59 / 158 / 348 / 301 *)
  Alcotest.(check bool)
    (Printf.sprintf "setjmp baseline 59us (got %.0f)" r.MB.setjmp_us)
    true
    (within ~tol:0.05 59. r.MB.setjmp_us);
  Alcotest.(check bool)
    (Printf.sprintf "unbound sync ~158us (got %.0f)" r.MB.unbound_us)
    true
    (within ~tol:0.25 158. r.MB.unbound_us);
  Alcotest.(check bool)
    (Printf.sprintf "bound sync ~348us (got %.0f)" r.MB.bound_us)
    true
    (within ~tol:0.25 348. r.MB.bound_us);
  Alcotest.(check bool)
    (Printf.sprintf "cross-process ~301us (got %.0f)" r.MB.cross_process_us)
    true
    (within ~tol:0.25 301. r.MB.cross_process_us);
  (* the orderings the paper's discussion relies on *)
  Alcotest.(check bool) "setjmp < unbound" true
    (r.MB.setjmp_us < r.MB.unbound_us);
  Alcotest.(check bool) "unbound < cross-process" true
    (r.MB.unbound_us < r.MB.cross_process_us);
  Alcotest.(check bool) "cross-process < bound (paper ratio .86)" true
    (r.MB.cross_process_us < r.MB.bound_us)

let test_scaling_cost_model_scales_results () =
  (* a 2x-slower machine should produce ~2x the times: the aggregates
     really do emerge from the component model *)
  let slow = Sunos_hw.Cost_model.scale 2.0 Sunos_hw.Cost_model.default in
  let base = MB.creation () in
  let scaled = MB.creation ~cost:slow () in
  Alcotest.(check bool) "unbound scales ~2x" true
    (within ~tol:0.15 (2. *. base.MB.unbound_us) scaled.MB.unbound_us);
  Alcotest.(check bool) "bound scales ~2x" true
    (within ~tol:0.15 (2. *. base.MB.bound_us) scaled.MB.bound_us)

(* Ablation A3's spin-budget sweep must be live: budget 0 is the sleep
   mutex, a longer budget never burns less CPU on the long critical
   section, and the sweep's ends differ. *)
let test_spin_budget_sweep () =
  let module Mutex = Sunos_threads.Mutex in
  let run ?cost v =
    ( MB.mutex_contention ?cost v ~cs_us:40,
      MB.mutex_contention ?cost v ~cs_us:3000 )
  in
  let sweep =
    List.map
      (fun limit ->
        let cost =
          { Sunos_hw.Cost_model.default with adaptive_spin_limit = limit }
        in
        run ~cost Mutex.Adaptive)
      MB.spin_budgets
  in
  let sleep = run Mutex.Sleep in
  Alcotest.(check bool) "budget 0 equals the sleep row" true
    (List.hd sweep = sleep);
  let long_cpu = List.map (fun (_, l) -> l.MB.cpu_ms) sweep in
  let rec nondecreasing = function
    | a :: (b :: _ as rest) -> a <= b && nondecreasing rest
    | _ -> true
  in
  Alcotest.(check bool)
    (Printf.sprintf "long-CS CPU never falls (%s)"
       (String.concat ", " (List.map (Printf.sprintf "%.1f") long_cpu)))
    true (nondecreasing long_cpu);
  Alcotest.(check bool) "the last row differs from the first" true
    (List.hd sweep <> List.nth sweep (List.length sweep - 1))

let () =
  Alcotest.run "figures"
    [
      ( "paper_shapes",
        [
          Alcotest.test_case "figure 5" `Quick test_figure5_shape;
          Alcotest.test_case "figure 6" `Quick test_figure6_shape;
          Alcotest.test_case "cost-model scaling" `Quick
            test_scaling_cost_model_scales_results;
        ] );
      ( "ablations",
        [
          Alcotest.test_case "A3 spin-budget sweep" `Quick
            test_spin_budget_sweep;
        ] );
    ]
