type kind =
  | Spawn
  | Dispatch
  | Preempt
  | Sleep
  | Sigwaiting
  | Lwp_exit
  | Exit
  | Panic
  | Ownerdead
  | Chaos
  | Proc_kill
  | Lwp_reap
  | Stop
  | Continue
  | Signal
  | Signal_lwp
  | Exec
  | Listen
  | Connect
  | Connect_refused
  | Accept
  | Epoll_create
  | Shed
  | Thrsan

type record = {
  time : Time.t;
  kind : kind;
  cpu : int;
  pid : int;
  lwp : int;
  name : string;
  name2 : string;
  arg : int;
  arg2 : int;
  arg3 : int;
}

type t = {
  capacity : int;
  mutable buf : record array;
      (* starts empty and doubles until it holds [capacity] records; it
         wraps only once it has reached that size *)
  mutable head : int; (* next write slot *)
  mutable len : int;
  mutable dropped : int;
  mutable enabled : bool;
  mutable interest : string list option;
      (* None = every tag; Some tags = only those tags are recorded *)
}

let create ?(capacity = 65536) () =
  if capacity < 1 then invalid_arg "Tracebuf.create: capacity";
  {
    capacity;
    buf = [||];
    head = 0;
    len = 0;
    dropped = 0;
    enabled = true;
    interest = None;
  }

let kind_tag = function
  | Spawn -> "spawn"
  | Dispatch -> "dispatch"
  | Preempt -> "preempt"
  | Sleep -> "sleep"
  | Sigwaiting -> "sigwaiting"
  | Lwp_exit -> "lwp_exit"
  | Exit -> "exit"
  | Panic -> "panic"
  | Ownerdead -> "ownerdead"
  | Chaos | Proc_kill | Lwp_reap -> "chaos"
  | Stop -> "stop"
  | Continue -> "continue"
  | Signal | Signal_lwp -> "signal"
  | Exec -> "exec"
  | Listen -> "listen"
  | Connect | Connect_refused -> "connect"
  | Accept -> "accept"
  | Epoll_create -> "epoll"
  | Shed -> "shed"
  | Thrsan -> "thrsan"

let message r =
  let p = Printf.sprintf in
  match r.kind with
  | Spawn -> p "pid%d (%s) created with lwp%d" r.pid r.name r.lwp
  | Dispatch -> p "cpu%d <- pid%d/lwp%d" r.cpu r.pid r.lwp
  | Preempt -> p "cpu%d drops pid%d/lwp%d" r.cpu r.pid r.lwp
  | Sleep ->
      p "pid%d/lwp%d on %s%s" r.pid r.lwp r.name
        (if r.arg <> 0 then " (indefinite)" else "")
  | Sigwaiting -> p "pid%d: all %d LWPs in indefinite waits" r.pid r.arg
  | Lwp_exit -> p "pid%d/lwp%d" r.pid r.lwp
  | Exit -> p "pid%d (%s) status=%d" r.pid r.name r.arg
  | Panic -> p "pid%d/lwp%d uncaught exception: %s" r.pid r.lwp r.name
  | Ownerdead -> p "seg%d+%d woke=%d" r.arg r.arg2 r.arg3
  | Chaos | Thrsan -> r.name
  | Proc_kill -> p "proc-kill pid%d (%s) in %s" r.pid r.name r.name2
  | Lwp_reap -> p "lwp-reap kills pid%d/lwp%d" r.pid r.lwp
  | Stop -> p "pid%d stopped" r.pid
  | Continue -> p "pid%d continued" r.pid
  | Signal -> p "pid%d <- %s" r.pid r.name
  | Signal_lwp -> p "pid%d/lwp%d <- %s" r.pid r.lwp r.name
  | Exec -> p "pid%d becomes %s" r.pid r.name
  | Listen -> p "pid%d listens on %s backlog=%d fd%d" r.pid r.name r.arg2 r.arg
  | Connect -> p "pid%d -> %s fd%d" r.pid r.name r.arg
  | Connect_refused -> p "pid%d -> %s refused" r.pid r.name
  | Accept -> p "pid%d accepts on %s -> fd%d" r.pid r.name r.arg
  | Epoll_create -> p "pid%d epoll_create -> fd%d" r.pid r.arg
  | Shed -> p "pid%d sheds a connection (total %d)" r.pid r.arg

(* The emit-side gate, and the only work an uninterested record costs:
   no record is built, so the hot dispatch/syscall/wakeup paths trace for
   free when nothing will read the buffer. *)
let interested t kind =
  t.enabled
  &&
  match t.interest with
  | None -> true
  | Some tags -> List.mem (kind_tag kind) tags

let set_interest t tags = t.interest <- tags

(* Below [capacity] the records sit in [buf.(0 .. len-1)] with
   [head = len], so growing is one blit.  A full ring of [capacity]
   overwrites its oldest record. *)
let emit t ~time kind ~cpu ~pid ~lwp ~name ~name2 ~arg ~arg2 ~arg3 =
  if interested t kind then begin
    let r = { time; kind; cpu; pid; lwp; name; name2; arg; arg2; arg3 } in
    let n = Array.length t.buf in
    if t.len = n && n < t.capacity then begin
      let buf = Array.make (min t.capacity (max 16 (2 * n))) r in
      Array.blit t.buf 0 buf 0 n;
      t.buf <- buf;
      t.head <- n
    end;
    let n = Array.length t.buf in
    if t.len = n then t.dropped <- t.dropped + 1 else t.len <- t.len + 1;
    t.buf.(t.head) <- r;
    t.head <- (t.head + 1) mod n
  end

let records t =
  let n = Array.length t.buf in
  let start = t.head - t.len + n in
  List.init t.len (fun i -> t.buf.((start + i) mod n))

let tag r = kind_tag r.kind
let find t ~tag:wanted = List.filter (fun r -> tag r = wanted) (records t)

let clear t =
  t.buf <- [||];
  t.head <- 0;
  t.len <- 0;
  t.dropped <- 0

let dropped t = t.dropped

let pp ppf t =
  List.iter
    (fun r ->
      Format.fprintf ppf "[%a] %-12s %s@." Time.pp r.time (tag r) (message r))
    (records t)

let enabled t = t.enabled
let set_enabled t b = t.enabled <- b
