module Time = Sunos_sim.Time

type t = {
  call : Time.span;
  tcb_alloc : Time.span;
  tcb_init : Time.span;
  stack_cache_hit : Time.span;
  stack_alloc_cold : Time.span;
  tls_zero : Time.span;
  runq_op : Time.span;
  setjmp_longjmp : Time.span;
  user_ctx_save : Time.span;
  user_ctx_restore : Time.span;
  sync_fast : Time.span;
  sync_slow_extra : Time.span;
  tls_access : Time.span;
  trap_entry : Time.span;
  trap_exit : Time.span;
  syscall_fixed : Time.span;
  kernel_dispatch : Time.span;
  sleep_enqueue : Time.span;
  wakeup : Time.span;
  lwp_create : Time.span;
  lwp_destroy : Time.span;
  fork_base : Time.span;
  fork_per_lwp : Time.span;
  exec_cost : Time.span;
  signal_post : Time.span;
  signal_deliver : Time.span;
  kwait_fixed : Time.span;
  kwake_fixed : Time.span;
  pagefault_service : Time.span;
  pipe_op : Time.span;
  sock_listen : Time.span;
  sock_connect : Time.span;
  sock_accept : Time.span;
  sock_op : Time.span;
  poll_fixed : Time.span;
  poll_per_fd : Time.span;
  fs_op : Time.span;
  copy_per_kb : Time.span;
  disk_access : Time.span;
  net_rtt : Time.span;
  quantum : Time.span;
  clock_tick : Time.span;
  adaptive_spin_limit : int;
      (* probes an adaptive mutex makes while the owner runs before it
         gives up and sleeps; a count, not a time, so [scale] leaves it
         alone (ablations sweep it per the lock-algorithms literature) *)
  coalesce : bool;
      (* run-ahead charge coalescing: batch CPU-time accounting into a
         per-LWP ledger, settling with one event per grant window
         instead of one per [Uctx.charge].  Behavior-preserving (the
         budget never crosses the event queue's next pending event);
         the toggle exists for ablations and for A/B equivalence
         tests, not because off is ever better *)
}

(* Calibration notes.  Component values are 1991-plausible path lengths at
   25 MHz (40 ns/cycle; ~50 instructions/us with cache misses).  They were
   then nudged so the *emergent* aggregates measured by bench/main.exe land
   near the paper's Figure 5/6 rows:
     unbound create 56us, bound create 2327us (ratio 42)
     setjmp/longjmp 59us, unbound sync 158us, bound sync 348us,
     cross-process sync 301us.
   The emergent values are measured, not asserted, so changing a component
   changes the aggregates coherently. *)
let default =
  {
    call = Time.us 2;
    tcb_alloc = Time.us 16;
    tcb_init = Time.us 22;
    stack_cache_hit = Time.us 16;
    stack_alloc_cold = Time.us 420;
    tls_zero = Time.us 30;
    runq_op = Time.us 10;
    setjmp_longjmp = Time.us 59;
    user_ctx_save = Time.us 52;
    user_ctx_restore = Time.us 50;
    sync_fast = Time.us 9;
    sync_slow_extra = Time.us 26;
    tls_access = Time.us 3;
    trap_entry = Time.us 20;
    trap_exit = Time.us 16;
    syscall_fixed = Time.us 12;
    kernel_dispatch = Time.us 75;
    sleep_enqueue = Time.us 78;
    wakeup = Time.us 72;
    lwp_create = Time.us 2210;
    lwp_destroy = Time.us 800;
    fork_base = Time.us 6200;
    fork_per_lwp = Time.us 2400;
    exec_cost = Time.us 9000;
    signal_post = Time.us 45;
    signal_deliver = Time.us 90;
    kwait_fixed = Time.us 0;
    kwake_fixed = Time.us 5;
    pagefault_service = Time.us 350;
    pipe_op = Time.us 40;
    sock_listen = Time.us 60;
    sock_connect = Time.us 250;
    sock_accept = Time.us 130;
    sock_op = Time.us 70;
    poll_fixed = Time.us 55;
    poll_per_fd = Time.us 6;
    fs_op = Time.us 120;
    copy_per_kb = Time.us 55;
    disk_access = Time.ms 22;
    net_rtt = Time.ms 3;
    quantum = Time.ms 100;
    clock_tick = Time.ms 10;
    adaptive_spin_limit = 5;
    coalesce = true;
  }

let free =
  {
    call = 0L;
    tcb_alloc = 0L;
    tcb_init = 0L;
    stack_cache_hit = 0L;
    stack_alloc_cold = 0L;
    tls_zero = 0L;
    runq_op = 0L;
    setjmp_longjmp = 0L;
    user_ctx_save = 0L;
    user_ctx_restore = 0L;
    sync_fast = 0L;
    sync_slow_extra = 0L;
    tls_access = 0L;
    trap_entry = 0L;
    trap_exit = 0L;
    syscall_fixed = 0L;
    kernel_dispatch = 0L;
    sleep_enqueue = 0L;
    wakeup = 0L;
    lwp_create = 0L;
    lwp_destroy = 0L;
    fork_base = 0L;
    fork_per_lwp = 0L;
    exec_cost = 0L;
    signal_post = 0L;
    signal_deliver = 0L;
    kwait_fixed = 0L;
    kwake_fixed = 0L;
    pagefault_service = 0L;
    pipe_op = 0L;
    sock_listen = 0L;
    sock_connect = 0L;
    sock_accept = 0L;
    sock_op = 0L;
    poll_fixed = 0L;
    poll_per_fd = 0L;
    fs_op = 0L;
    copy_per_kb = 0L;
    disk_access = 0L;
    net_rtt = 0L;
    quantum = Time.ms 100;
    clock_tick = Time.ms 10;
    adaptive_spin_limit = 5;
    coalesce = true;
  }

let scale f c =
  let s v = Int64.of_float (Float.round (Int64.to_float v *. f)) in
  {
    call = s c.call;
    tcb_alloc = s c.tcb_alloc;
    tcb_init = s c.tcb_init;
    stack_cache_hit = s c.stack_cache_hit;
    stack_alloc_cold = s c.stack_alloc_cold;
    tls_zero = s c.tls_zero;
    runq_op = s c.runq_op;
    setjmp_longjmp = s c.setjmp_longjmp;
    user_ctx_save = s c.user_ctx_save;
    user_ctx_restore = s c.user_ctx_restore;
    sync_fast = s c.sync_fast;
    sync_slow_extra = s c.sync_slow_extra;
    tls_access = s c.tls_access;
    trap_entry = s c.trap_entry;
    trap_exit = s c.trap_exit;
    syscall_fixed = s c.syscall_fixed;
    kernel_dispatch = s c.kernel_dispatch;
    sleep_enqueue = s c.sleep_enqueue;
    wakeup = s c.wakeup;
    lwp_create = s c.lwp_create;
    lwp_destroy = s c.lwp_destroy;
    fork_base = s c.fork_base;
    fork_per_lwp = s c.fork_per_lwp;
    exec_cost = s c.exec_cost;
    signal_post = s c.signal_post;
    signal_deliver = s c.signal_deliver;
    kwait_fixed = s c.kwait_fixed;
    kwake_fixed = s c.kwake_fixed;
    pagefault_service = s c.pagefault_service;
    pipe_op = s c.pipe_op;
    sock_listen = s c.sock_listen;
    sock_connect = s c.sock_connect;
    sock_accept = s c.sock_accept;
    sock_op = s c.sock_op;
    poll_fixed = s c.poll_fixed;
    poll_per_fd = s c.poll_per_fd;
    fs_op = s c.fs_op;
    copy_per_kb = s c.copy_per_kb;
    disk_access = s c.disk_access;
    net_rtt = s c.net_rtt;
    quantum = s c.quantum;
    clock_tick = s c.clock_tick;
    adaptive_spin_limit = c.adaptive_spin_limit;
    coalesce = c.coalesce;
  }
