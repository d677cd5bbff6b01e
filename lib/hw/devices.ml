module Time = Sunos_sim.Time
module Eventq = Sunos_sim.Eventq

(* Transfer rate for byte-count-dependent service times: 1 MiB/s (a 1991
   SCSI disk / thin Ethernet), i.e. ~954 ns per byte. *)
let transfer_span bytes_ = Time.ns (bytes_ * 954)

module Disk = struct
  type req = { bytes_ : int; on_complete : unit -> unit }

  type t = {
    eventq : Eventq.t;
    access_time : Time.span;
    queue : req Queue.t;
    mutable busy : bool;
    mutable completed : int;
  }

  let create ~eventq ~access_time () =
    { eventq; access_time; queue = Queue.create (); busy = false; completed = 0 }

  let service_time t bytes_ = Int64.add t.access_time (transfer_span bytes_)

  let rec start_next t =
    match Queue.take_opt t.queue with
    | None -> t.busy <- false
    | Some req ->
        t.busy <- true;
        ignore
          (Eventq.after t.eventq (service_time t req.bytes_) (fun () ->
               t.completed <- t.completed + 1;
               req.on_complete ();
               start_next t))

  let submit t ~bytes_ ~on_complete =
    Queue.add { bytes_; on_complete } t.queue;
    if not t.busy then start_next t

  let queue_length t = Queue.length t.queue + if t.busy then 1 else 0
  let completed t = t.completed
end

module Net = struct
  type t = {
    eventq : Eventq.t;
    rtt : Time.span;
    mutable in_flight : int;
    mutable completed : int;
  }

  let create ~eventq ~rtt () = { eventq; rtt; in_flight = 0; completed = 0 }

  let fire t span on_complete =
    t.in_flight <- t.in_flight + 1;
    ignore
      (Eventq.after t.eventq span (fun () ->
           t.in_flight <- t.in_flight - 1;
           t.completed <- t.completed + 1;
           on_complete ()))

  let send t ~bytes_ ~on_complete =
    let one_way = Int64.div t.rtt 2L in
    fire t (Int64.add one_way (transfer_span bytes_)) on_complete

  let request_response t ~bytes_ ~on_complete =
    fire t (Int64.add t.rtt (transfer_span bytes_)) on_complete

  let in_flight t = t.in_flight
  let completed t = t.completed
  let now t = Eventq.now t.eventq

  (* Bare rescheduling, for deliveries deferred by a fault (a stalled
     peer): counted in_flight like any transfer so the queue stays live
     while the delivery is pending. *)
  let delay t span on_complete = fire t span on_complete
end
