(* Connection-oriented stream sockets for the simulated kernel.

   This module is pure mechanism, in the style of Pipe: bounded buffers,
   closed flags and one {!Readiness.t} per direction and per listener.
   What is new relative to a pipe is that the two endpoints live in
   different processes and every byte crosses the simulated network: a
   successful [write] only *accepts* the data into the sender's window;
   delivery into the peer's receive buffer happens a transfer time plus
   half a round trip later, through [Devices.Net.send].  The write
   window is [capacity - delivered - in_flight], so a writer stalls
   exactly when the receiver is slow to drain — TCP-style backpressure
   with a fixed window.

   Determinism: the net device of the simulated machine carries no
   jitter and the event queue breaks timestamp ties in insertion order,
   so deliveries on one direction arrive in the order they were sent and
   a whole run is a pure function of the workload's seeds. *)

module Net = Sunos_hw.Devices.Net
module Time = Sunos_sim.Time

type dir = {
  capacity : int;
  buf : Buffer.t;  (* delivered, not yet read by the receiver *)
  mutable in_flight : int;  (* accepted from the sender, still on the wire *)
  mutable wclosed : bool;  (* sender closed: EOF once [buf] drains *)
  mutable rclosed : bool;  (* receiver closed: further writes are resets *)
  mutable stall_until : Time.t;  (* fault injection: peer not draining *)
  on_read : Readiness.t;  (* the receiver's: delivery, EOF, reset *)
  on_write : Readiness.t;  (* the sender's: window opened, reset *)
}

type conn = {
  net : Net.t;
  c2s : dir;  (* client -> server *)
  s2c : dir;  (* server -> client *)
  mutable reset : bool;
}

type side = Client | Server
type endpoint = { conn : conn; side : side }

type listener = {
  lname : string;
  backlog : int;
  capacity : int;  (* per-direction buffer size of accepted connections *)
  pending : endpoint Queue.t;  (* established, not yet accepted *)
  on_accept : Readiness.t;  (* an arrival, or the listener closed *)
  mutable lclosed : bool;
  registry : registry;
}

and registry = (string, listener) Hashtbl.t

let default_capacity = 8192
let create_registry () : registry = Hashtbl.create 16

(* ---- directions ----------------------------------------------------- *)

let mk_dir capacity =
  {
    capacity;
    buf = Buffer.create 256;
    in_flight = 0;
    wclosed = false;
    rclosed = false;
    stall_until = Time.zero;
    on_read = Readiness.create ();
    on_write = Readiness.create ();
  }

let buffered (d : dir) = Buffer.length d.buf
let window (d : dir) = d.capacity - buffered d - d.in_flight

(* ---- endpoints ------------------------------------------------------ *)

let outgoing ep = match ep.side with Client -> ep.conn.c2s | Server -> ep.conn.s2c
let incoming ep = match ep.side with Client -> ep.conn.s2c | Server -> ep.conn.c2s

(* EOF is ordered after data: the close flag only becomes readable once
   every chunk accepted before the close has been delivered. *)
let at_eof d = d.wclosed && buffered d = 0 && d.in_flight = 0

let readable ep =
  ep.conn.reset || buffered (incoming ep) > 0 || at_eof (incoming ep)

let writable ep =
  ep.conn.reset || (outgoing ep).rclosed || window (outgoing ep) > 0

let read ep ~len =
  if ep.conn.reset then `Reset
  else
    let d = incoming ep in
    let n = min len (buffered d) in
    if n > 0 then begin
      let all = Buffer.contents d.buf in
      let out = String.sub all 0 n in
      Buffer.clear d.buf;
      Buffer.add_substring d.buf all n (String.length all - n);
      (* the window just opened: let the peer's writers at it *)
      Readiness.fire d.on_write;
      `Data out
    end
    else if at_eof d then `Eof
    else `Empty

(* Delivery completion for one chunk: runs off the event queue a
   transfer time + half an RTT after the write was accepted.

   A stalled direction (fault injection: the peer stopped draining)
   defers the completion to [stall_until].  Order is preserved: every
   deferred chunk lands at the same instant and the event queue breaks
   timestamp ties in insertion order, while chunks whose natural arrival
   is later than the stall deadline were sent later and stay later.  The
   chunk stays in_flight across the deferral, so the sender's window
   remains closed — a stall is backpressure, not loss. *)
let rec deliver conn d chunk =
  let nnow = Net.now conn.net in
  if (not (d.rclosed || conn.reset)) && Time.(nnow < d.stall_until) then
    Net.delay conn.net (Time.diff d.stall_until nnow) (fun () ->
        deliver conn d chunk)
  else begin
    d.in_flight <- d.in_flight - String.length chunk;
    if not (d.rclosed || conn.reset) then begin
      Buffer.add_string d.buf chunk;
      Readiness.fire d.on_read
    end
    else if d.in_flight = 0 && d.wclosed then
      (* last straggler of an already-closed stream: readers blocked for
         the ordered EOF can now see it *)
      Readiness.fire d.on_read
  end

(* A teardown may unblock either side of a direction. *)
let fire_all d =
  Readiness.fire d.on_read;
  Readiness.fire d.on_write

let stall ep ~until =
  let d = outgoing ep in
  d.stall_until <- Time.max d.stall_until until

(* Abortive teardown from the outside (fault injection: a mid-stream
   RST).  Both streams die instantly; every waiter is fired so blocked
   readers, writers and pollers re-examine the endpoint and observe the
   reset. *)
let abort ep =
  let c = ep.conn in
  if not c.reset then begin
    c.reset <- true;
    Buffer.clear c.c2s.buf;
    Buffer.clear c.s2c.buf;
    fire_all c.c2s;
    fire_all c.s2c
  end

let write ep data =
  if ep.conn.reset || (outgoing ep).rclosed then `Reset
  else
    let d = outgoing ep in
    let n = min (window d) (String.length data) in
    if n = 0 then `Full
    else begin
      let chunk = String.sub data 0 n in
      d.in_flight <- d.in_flight + n;
      Net.send ep.conn.net ~bytes_:n ~on_complete:(fun () ->
          deliver ep.conn d chunk);
      `Accepted n
    end

let close ep =
  let out = outgoing ep and inc = incoming ep in
  if not (out.wclosed && inc.rclosed) then begin
    out.wclosed <- true;
    inc.rclosed <- true;
    (* closing with undelivered inbound data is an abortive close: the
       peer learns nobody read its bytes (RST), both streams die *)
    if buffered inc > 0 || inc.in_flight > 0 then begin
      ep.conn.reset <- true;
      Buffer.clear inc.buf;
      Buffer.clear out.buf
    end;
    fire_all out;
    fire_all inc
  end

let read_readiness ep = (incoming ep).on_read
let write_readiness ep = (outgoing ep).on_write

(* ---- listeners ------------------------------------------------------ *)

let listen registry ~name ~backlog ?(capacity = default_capacity) () =
  if Hashtbl.mem registry name then Error `Addr_in_use
  else begin
    let l =
      {
        lname = name;
        backlog = max 1 backlog;
        capacity;
        pending = Queue.create ();
        on_accept = Readiness.create ();
        lclosed = false;
        registry;
      }
    in
    Hashtbl.replace registry name l;
    Ok l
  end

let lookup registry name : listener option = Hashtbl.find_opt registry name
let listener_closed l = l.lclosed
let listener_name l = l.lname
let pending_count l = Queue.length l.pending
let acceptable l = l.lclosed || not (Queue.is_empty l.pending)
let accept_readiness l = l.on_accept

(* SYN arrival: admit a connection if the listener still exists and the
   backlog has room.  Returns the client endpoint; the matching server
   endpoint waits on the pending queue for an accept. *)
let try_admit l ~net =
  if l.lclosed || Queue.length l.pending >= l.backlog then None
  else begin
    let conn =
      { net; c2s = mk_dir l.capacity; s2c = mk_dir l.capacity; reset = false }
    in
    Queue.add { conn; side = Server } l.pending;
    Readiness.fire l.on_accept;
    Some { conn; side = Client }
  end

let accept l = Queue.take_opt l.pending

let close_listener l =
  if not l.lclosed then begin
    l.lclosed <- true;
    Hashtbl.remove l.registry l.lname;
    (* connections sitting in the backlog were never accepted: abort
       them so the far side sees a reset rather than a silent hang *)
    Queue.iter close l.pending;
    Queue.clear l.pending;
    Readiness.fire l.on_accept
  end

(* A socketpair without the listen/connect dance — for shims and tests. *)
let pair ~net ?(capacity = default_capacity) () =
  let conn = { net; c2s = mk_dir capacity; s2c = mk_dir capacity; reset = false } in
  ({ conn; side = Client }, { conn; side = Server })
