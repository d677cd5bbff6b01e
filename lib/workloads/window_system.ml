module Time = Sunos_sim.Time
module Hist = Sunos_sim.Stats.Hist
module Rng = Sunos_sim.Rng
module Kernel = Sunos_kernel.Kernel
module Uctx = Sunos_kernel.Uctx
module Errno = Sunos_kernel.Errno

type params = {
  widgets : int;
  events : int;
  mean_interarrival_us : int;
  seed : int64;
}

let default_params =
  {
    widgets = 100;
    events = 500;
    mean_interarrival_us = 1500;
    seed = 11L;
  }

(* Work per event: the input handler's, then the output handler's. *)
let input_compute_us = 120
let render_compute_us = 250

type results = {
  handled : int;
  latency : Hist.t;
  makespan : Time.span;
  lwps_created : int;
  threads_created : int;
}

(* Events travel as fixed 32-byte frames "widget stamp" (space padded)
   so the reader can reframe the byte stream exactly.  Two control
   frames ride the same wire: on every accept the server sends "R n"
   (resume: n event frames received so far) so a client reconnecting
   after a dropped connection resends exactly the lost tail, and "F"
   (fin) once every event has arrived so the client can stop. *)
let frame_len = 32
let frame w stamp = Wire.pad (Printf.sprintf "%d %Ld" w stamp) frame_len
let resume_frame n = Wire.pad (Printf.sprintf "R %d" n) frame_len
let fin_frame = Wire.pad "F" frame_len

(* One widget = an input handler and an output handler, coupled by a
   semaphore pair and a mailbox of pending event timestamps.  The X
   server side listens on a socket; a client process connects and
   writes the event stream with Poisson spacing. *)
let run (module M : Sunos_baselines.Model.S) ?(cpus = 1) ?cost ?chaos
    ?(trace = false) ?debrief p =
  let k = Kernel.boot ~cpus ?cost ?chaos () in
  if not trace then Kernel.set_tracing k false;
  let latency = Hist.create "event latency" in
  let handled = ref 0 in
  let threads_created = ref 0 in
  let makespan = ref Time.zero in
  let app () =
    let lfd = Uctx.listen ~name:"xwire" ~backlog:1 in
    (* per-widget plumbing *)
    let in_sem = Array.init p.widgets (fun _ -> M.Sem.create 0) in
    let out_sem = Array.init p.widgets (fun _ -> M.Sem.create 0) in
    let in_box = Array.make p.widgets [] in
    let out_box = Array.make p.widgets [] in
    let input_handler w () =
      let rec loop () =
        M.Sem.p in_sem.(w);
        match in_box.(w) with
        | [] ->
            (* shutdown: forward it down the pipeline so the output
               handler drains every forwarded event first *)
            M.Sem.v out_sem.(w)
        | stamp :: rest ->
            in_box.(w) <- rest;
            Uctx.charge_us input_compute_us;
            out_box.(w) <- out_box.(w) @ [ stamp ];
            M.Sem.v out_sem.(w);
            loop ()
      in
      loop ()
    in
    let output_handler w () =
      let rec loop () =
        M.Sem.p out_sem.(w);
        match out_box.(w) with
        | [] -> ()
        | stamp :: rest ->
            out_box.(w) <- rest;
            Uctx.charge_us render_compute_us;
            Hist.add latency (Time.diff (Uctx.gettime ()) stamp);
            incr handled;
            loop ()
      in
      loop ()
    in
    let handlers =
      List.concat_map
        (fun w ->
          [ M.spawn (input_handler w); M.spawn (output_handler w) ])
        (List.init p.widgets (fun w -> w))
    in
    (* both process mains plus the handler pairs *)
    threads_created := (2 * p.widgets) + 2;
    (* the wire reader: demultiplex events to widgets.  A connection
       can die under fault injection (RST mid-stream); the reader then
       re-accepts and tells the client where to resume, so no event is
       lost — merely re-sent. *)
    let received = ref 0 in
    let fd = ref (Uctx.accept lfd) in
    let rec greet () =
      try Uctx.write_all !fd (resume_frame !received)
      with e when Wire.conn_dead e ->
        Uctx.close !fd;
        fd := Uctx.accept lfd;
        greet ()
    in
    greet ();
    let rec serve () =
      if !received < p.events then begin
        match Uctx.read_exact !fd ~len:frame_len with
        | msg when String.length msg < frame_len ->
            (* peer closed mid-frame: wait for the reconnect *)
            Uctx.close !fd;
            fd := Uctx.accept lfd;
            greet ();
            serve ()
        | msg ->
            (match String.split_on_char ' ' (String.trim msg) with
            | [ ws; ts ] -> (
                match (int_of_string_opt ws, Int64.of_string_opt ts) with
                | Some w, Some stamp when w >= 0 && w < p.widgets ->
                    in_box.(w) <- in_box.(w) @ [ stamp ];
                    M.Sem.v in_sem.(w);
                    incr received
                | _ -> ())
            | _ -> ());
            serve ()
        | exception e when Wire.conn_dead e ->
            Uctx.close !fd;
            fd := Uctx.accept lfd;
            greet ();
            serve ()
      end
    in
    serve ();
    (* fin handshake: tell the client everything arrived and wait for
       its close.  If the fin itself is lost to an injected reset the
       client reconnects, so re-accept — but only for a bounded window,
       because the client may instead have exited already. *)
    let rec fin () =
      let ok =
        try
          Uctx.write_all !fd fin_frame;
          ignore (Uctx.read !fd ~len:1);
          true
        with e when Wire.conn_dead e -> false
      in
      if not ok then begin
        Uctx.close !fd;
        let rec reaccept n =
          if n > 0 then
            match Uctx.accept_nb lfd with
            | `Conn c ->
                fd := c;
                fin ()
            | `Again ->
                Uctx.sleep (Time.ms 5);
                reaccept (n - 1)
            | `Aborted -> ()
        in
        reaccept 40
      end
    in
    fin ();
    Uctx.close !fd;
    Uctx.close lfd;
    (* drain: an empty-box wakeup is the shutdown token; it propagates
       through each widget's pipeline *)
    for w = 0 to p.widgets - 1 do
      M.Sem.v in_sem.(w)
    done;
    List.iter M.join handlers;
    makespan := Uctx.gettime ()
  in
  (* event injection: a client process with Poisson arrivals addressed
     to random widgets *)
  let injector () =
    let rng = Rng.create ~seed:p.seed in
    let wrote_all = ref false in
    (* Unbounded retry while events remain to deliver (the server is
       certainly still listening).  Once every event has been written
       the only reason to reconnect is a lost fin — and the server
       holds its post-fin accept window open only briefly — so give up
       after a bounded number of refusals instead of spinning against
       a closed listener forever. *)
    let rec reconnect attempts =
      match Uctx.connect "xwire" with
      | fd -> Some fd
      | exception Errno.Unix_error (Errno.ECONNREFUSED, _) ->
          if !wrote_all && attempts >= 100 then None
          else begin
            Uctx.sleep (Time.us 200);
            reconnect (attempts + 1)
          end
    in
    let rec session () =
      match reconnect 0 with
      | None -> ()
      | Some fd -> (
          match
            let greeting = Uctx.read_exact fd ~len:frame_len in
            match String.split_on_char ' ' (String.trim greeting) with
            | [ "F" ] -> `Done
            | [ "R"; n ] -> (
                match int_of_string_opt n with
                | Some n when n >= p.events -> `Done
                | Some n ->
                    for _ = n + 1 to p.events do
                      Uctx.sleep
                        (Time.us_f
                           (Rng.exponential rng
                              ~mean:(float_of_int p.mean_interarrival_us)));
                      Uctx.write_all fd
                        (frame (Rng.int rng p.widgets) (Uctx.gettime ()))
                    done;
                    wrote_all := true;
                    (* await the fin; a short read is a dead conn *)
                    let fin = Uctx.read_exact fd ~len:frame_len in
                    if String.length fin = frame_len then `Done else `Retry
                | None -> `Retry)
            | _ -> `Retry
          with
          | `Done -> Uctx.close fd
          | `Retry ->
              Uctx.close fd;
              session ()
          | exception e when Wire.conn_dead e ->
              Uctx.close fd;
              session ())
    in
    session ()
  in
  ignore (Kernel.spawn k ~name:"windows" ~main:(M.boot app));
  ignore (Kernel.spawn k ~name:"xclient" ~main:(M.boot injector));
  Kernel.run k;
  (match debrief with Some f -> f k | None -> ());
  {
    handled = !handled;
    latency;
    makespan = !makespan;
    lwps_created = Kernel.lwp_create_count k;
    threads_created = !threads_created;
  }

let pp_results ppf r =
  Format.fprintf ppf
    "handled=%d threads=%d lwps=%d makespan=%a latency: %a" r.handled
    r.threads_created r.lwps_created Time.pp r.makespan Hist.pp_summary
    r.latency
