module Time = Sunos_sim.Time
module Rng = Sunos_sim.Rng
module Shm = Sunos_hw.Shared_memory
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Errno = Sunos_kernel.Errno
module Sysdefs = Sunos_kernel.Sysdefs
module Procfs = Sunos_kernel.Procfs
module Fs = Sunos_kernel.Fs

let pad msg len =
  if String.length msg >= len then String.sub msg 0 len
  else msg ^ String.make (len - String.length msg) ' '

let is_busy reply = String.length reply >= 4 && String.sub reply 0 4 = "busy"

type job = Stop | Work of { fd : Sysdefs.fd; shed : bool }

exception Conn_dead

let conn_dead = function
  | Conn_dead | Errno.Unix_error ((Errno.ECONNRESET | Errno.EPIPE), _) -> true
  | _ -> false

let finish_frame fd first ~len =
  let got = String.length first in
  if got < len then ignore (Uctx.read_exact fd ~len:(len - got))

let connect_retry ?(tries = max_int) ~refused svc =
  let rec go tries =
    match Uctx.connect svc with
    | fd -> Some fd
    | exception Errno.Unix_error (Errno.ECONNREFUSED, _) ->
        refused ();
        Uctx.sleep (Time.ms 2);
        if tries > 1 then go (tries - 1) else None
  in
  go tries

let connect_backoff ~rng ~limit ~base_us ~refused svc =
  let base = max 1 base_us in
  let rec go attempt =
    match Uctx.connect svc with
    | fd -> Some fd
    | exception Errno.Unix_error (Errno.ECONNREFUSED, _) ->
        refused ();
        if attempt >= limit then None
        else begin
          (* exponential backoff, capped at 64x the base, plus
             deterministic jitter from the client's own stream so
             synchronized refusals decorrelate without forking the
             run's determinism *)
          let backoff = base * (1 lsl min attempt 6) in
          Uctx.sleep (Time.us (backoff + Rng.int rng base));
          go (attempt + 1)
        end
  in
  go 0

(* Poll with the remaining budget, then drain non-blockingly.  A client
   that waits forever on a struggling server is how one overload becomes
   a whole-fleet overload. *)
let deadline_read fd ~len ~deadline =
  let buf = Buffer.create len in
  let rec go () =
    if Buffer.length buf >= len then Buffer.contents buf
    else
      let now = Uctx.gettime () in
      if Time.(now >= deadline) then Buffer.contents buf
      else
        let ready =
          Uctx.poll
            ~timeout:(Time.diff deadline now)
            [ { Sysdefs.pfd = fd; want_in = true; want_out = false } ]
        in
        if ready = [] then Buffer.contents buf (* timed out *)
        else
          match Uctx.try_read fd ~len:(len - Buffer.length buf) with
          | `Data s ->
              Buffer.add_string buf s;
              go ()
          | `Again -> go () (* spurious not-ready: re-poll *)
          | `Eof -> Buffer.contents buf
          | `Reset -> raise (Errno.Unix_error (Errno.ECONNRESET, "read"))
  in
  go ()

let read_reply fd ~len ~t0 ~deadline_us =
  let reply =
    if deadline_us > 0 then
      deadline_read fd ~len ~deadline:(Time.add t0 (Time.us deadline_us))
    else Uctx.read_exact fd ~len
  in
  if String.length reply < len then raise Conn_dead;
  reply

type shards = {
  ep : Sysdefs.fd array;
  kick_r : Sysdefs.fd array;
  kick_w : Sysdefs.fd array;
}

let open_shards ?also n =
  let ep = Array.init n (fun _ -> Uctx.epoll_create ()) in
  let pipes =
    Array.init n (fun s ->
        let r, w = Uctx.pipe () in
        Uctx.epoll_add ep.(s) r ~want_in:true ();
        Option.iter (fun fd -> Uctx.epoll_add ep.(s) fd ~want_in:true ()) also;
        (r, w))
  in
  { ep; kick_r = Array.map fst pipes; kick_w = Array.map snd pipes }

let ep sh s = sh.ep.(s)

let kick_all sh = Array.iter (fun w -> ignore (Uctx.write w "!")) sh.kick_w

(* Only shard [s]'s poller reads its kick pipe, so a byte is always
   behind the edge. *)
let take_kick sh s fd =
  fd = sh.kick_r.(s)
  && begin
       ignore (Uctx.read fd ~len:64);
       true
     end

let close_shards k sh =
  (* process exit clears the fd table, so post-run /proc shows nothing:
     snapshot this process's epoll counters first *)
  let me = Uctx.getpid () in
  let stats = List.filter (fun e -> e.Procfs.ei_pid = me) (Procfs.epolls k) in
  Array.iter Uctx.close sh.ep;
  Array.iter Uctx.close sh.kick_r;
  Array.iter Uctx.close sh.kick_w;
  stats

let cold_file k ~path ~size =
  match Fs.create_file (Kernel.fs k) ~path () with
  | Ok f ->
      ignore (Fs.write f ~pos:0 (String.make size 'd'));
      Shm.evict_all (Fs.segment f);
      f
  | Error _ -> invalid_arg (path ^ ": setup failed")

let finishing makespan body () =
  body ();
  let t = Uctx.gettime () in
  if Time.(t > !makespan) then makespan := t

let per_second n span =
  if Time.(span > 0L) then float_of_int n /. Time.to_s span else 0.
