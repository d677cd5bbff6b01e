(* Schedctl: the schedule-control seam between the deterministic engine
   and the exploration driver (Explore).

   Every place where the engine breaks a tie among equally-eligible
   work — which LWP a CPU dispatches within a priority, which futex
   waiter a kwake hands the word to, which user thread an LWP runs
   next, which waiter a sync primitive admits — is a decision, and
   "candidate 0" is the engine's own default.  Three of them admit from
   a FIFO whose entries die lazily (a signal or timeout ends the wait
   but leaves the entry queued): they all call [take], whose passive
   path is a plain front pop and does not even count the candidates.
   The dispatcher enumerates its own candidates and calls [choose],
   because a CPU may not run every entry at a level: an LWP bound to
   another CPU is not a candidate.  The determinism goldens pin that the
   passive paths are the engine's behavior.

   In driven mode (installed by [begin_run]) the first [vector] choices
   replay a prescribed prefix and everything beyond it takes the
   default; every consulted decision is recorded, along with each
   candidate's sync-object footprint, so the explorer can enumerate the
   untaken branches afterwards.  Decisions with a single candidate are
   not recorded — they carry no information and would only bloat the
   replay vectors.

   One driver at a time, in one domain: exploration re-runs the machine
   from boot sequentially. *)

type decision = {
  d_site : string;  (* which choice point: "dispatch", "runq", "waitq", "kwake" *)
  d_obj : int;  (* identity of the queue/object being decided over *)
  d_arity : int;  (* how many candidates were eligible *)
  d_choice : int;  (* index actually taken (0 = the engine's default) *)
  d_foot : int list array;
      (* per-candidate sync-object footprint for the explorer's
         partial-order reduction; [||] or empty lists when the site
         reports none *)
}

type driver = {
  vector : int array;  (* prescribed choices; beyond it, the default *)
  mutable pos : int;  (* decisions consumed so far *)
  mutable log : decision list;  (* reverse-chronological record *)
  mutable diverged : string option;
      (* set when replay asks for a choice the run cannot honor: the
         engine produced a different decision sequence than the run the
         vector was recorded against (a determinism bug) *)
}

let driver_r : driver option ref = ref None

let active () = !driver_r <> None

let choose ~site ~obj ?foot n =
  match !driver_r with
  | None -> 0
  | Some d ->
      if n <= 1 then 0
      else begin
        let i = d.pos in
        d.pos <- i + 1;
        let c =
          if i < Array.length d.vector then begin
            let c = d.vector.(i) in
            if c < 0 || c >= n then begin
              (if d.diverged = None then
                 d.diverged <-
                   Some
                     (Printf.sprintf
                        "decision %d at %s#%d: vector says %d but arity is %d"
                        i site obj c n));
              0
            end
            else c
          end
          else 0
        in
        let foot = match foot with Some f -> Array.init n f | None -> [||] in
        d.log <-
          { d_site = site; d_obj = obj; d_arity = n; d_choice = c;
            d_foot = foot }
          :: d.log;
        c
      end

(* Remove the first entry physically equal to [x], keeping the others in
   order: rotate the queue once, re-adding all but that entry. *)
let remove q x =
  let found = ref false in
  for _ = 1 to Queue.length q do
    let y = Queue.take q in
    if (not !found) && y == x then found := true else Queue.add y q
  done;
  !found

let rec drop_dead ~live q =
  if (not (Queue.is_empty q)) && not (live (Queue.peek q)) then begin
    ignore (Queue.take q);
    drop_dead ~live q
  end

(* The front is always live once the dead fronts are gone, so passive
   mode, and any pop that wants at least as many entries as are live,
   takes it without counting.  Dead entries behind the chosen one stay
   queued for a later pop to drop. *)
let take ~site ~obj ~foot ~want ~live q =
  drop_dead ~live q;
  if Queue.is_empty q then None
  else
    match !driver_r with
    | None -> Some (Queue.take q)
    | Some _ when want >= Queue.length q -> Some (Queue.take q)
    | Some _ ->
        let n = Queue.fold (fun n x -> if live x then n + 1 else n) 0 q in
        if n <= want then Some (Queue.take q)
        else begin
          let cands = Array.make n (Queue.peek q) and i = ref 0 in
          Queue.iter
            (fun x ->
              if live x then begin
                cands.(!i) <- x;
                incr i
              end)
            q;
          let x = cands.(choose ~site ~obj ~foot:(fun i -> foot cands.(i)) n) in
          ignore (remove q x : bool);
          Some x
        end

let begin_run ~vector =
  (match !driver_r with
  | Some _ -> invalid_arg "Schedctl.begin_run: a driver is already installed"
  | None -> ());
  driver_r := Some { vector; pos = 0; log = []; diverged = None }

let end_run () =
  match !driver_r with
  | None -> invalid_arg "Schedctl.end_run: no driver installed"
  | Some d ->
      driver_r := None;
      (List.rev d.log, d.diverged)

(* Abandon the driver without harvesting (cleanup on exceptions). *)
let abort_run () = driver_r := None
