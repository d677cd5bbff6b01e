(* The event queue: one pairing heap of handles ordered by (time, seq).
   [seq] is unique, so the order is total and any heap shape pops the
   same sequence. *)

type handle = {
  time : Time.t;
  seq : int;
  action : unit -> unit;
  mutable cancelled : bool;
  mutable fired : bool;
  owner : t;
}

and t = {
  mutable heap : handle Pheap.t;
  mutable now : Time.t;
  mutable next_seq : int;
  mutable live : int;
  mutable dead : int;  (* cancelled handles still in the heap *)
  mutable fired_count : int;
  mutable drain_hooks : (unit -> unit) list;
      (* fired by [run] when the queue empties; diagnostic observers
         (e.g. the thread sanitizer's hang check).  Kept in REVERSE
         registration order — consing is O(1) per registration — and
         reversed once at fire time *)
  mutable run_horizon : Time.t option;
      (* the [until] of the [run] currently draining this queue, if
         any: [next_time] clamps to it so run-ahead accounting never
         outruns a horizon-limited run *)
}

let cmp a b =
  let c = Time.compare a.time b.time in
  if c <> 0 then c else Int.compare a.seq b.seq

let create () =
  {
    heap = Pheap.create ~cmp;
    now = Time.zero;
    next_seq = 0;
    live = 0;
    dead = 0;
    fired_count = 0;
    drain_hooks = [];
    run_horizon = None;
  }

let on_drain q f = q.drain_hooks <- f :: q.drain_hooks

let now q = q.now

let at q time action =
  if Time.(time < q.now) then
    invalid_arg "Eventq.at: scheduling in the past";
  let h =
    { time; seq = q.next_seq; action; cancelled = false; fired = false;
      owner = q }
  in
  q.next_seq <- q.next_seq + 1;
  Pheap.insert q.heap h;
  q.live <- q.live + 1;
  h

let after q d action = at q (Time.add q.now d) action

(* Rebuild the heap from its live population.  Cancellation is lazy (the
   heap keeps cancelled handles until they surface), so a cancel-heavy
   workload — timer re-arms, poll timeouts — would otherwise carry an
   arbitrarily large dead population through every merge.  Compaction
   runs when the dead outnumber the live (> ~50% of the population),
   which keeps the heap within 2x of the live set and costs O(live)
   amortized against the cancels that triggered it. *)
let compact q =
  let keep =
    List.filter (fun h -> not h.cancelled) (Pheap.to_list_unordered q.heap)
  in
  q.heap <- Pheap.of_list ~cmp keep;
  q.dead <- 0

let cancel h =
  if (not h.cancelled) && not h.fired then begin
    h.cancelled <- true;
    let q = h.owner in
    q.live <- q.live - 1;
    q.dead <- q.dead + 1;
    if q.dead > 64 && q.dead > q.live then compact q
  end

let is_pending h = (not h.cancelled) && not h.fired

(* Drop the cancelled handles at the top of the heap (lazy deletion;
   compaction bounds how many can be in flight).  Afterwards the heap is
   empty exactly when [q.live = 0], and otherwise its top is the live
   head.  [dead > 0] implies a non-empty heap. *)
let rec skim q =
  if q.dead > 0 && (Pheap.top q.heap).cancelled then begin
    Pheap.drop_min q.heap;
    q.dead <- q.dead - 1;
    skim q
  end

(* Fire [h], the live head at the top of the heap. *)
let fire q h =
  Pheap.drop_min q.heap;
  q.now <- h.time;
  h.fired <- true;
  q.live <- q.live - 1;
  q.fired_count <- q.fired_count + 1;
  h.action ()

let run_one q =
  skim q;
  if q.live = 0 then false
  else begin
    fire q (Pheap.top q.heap);
    true
  end

(* Earliest instant at which anything can happen: the first live event,
   clamped to the horizon of the [run] currently draining us.  [None]
   means nothing is pending and no horizon binds — the caller may run
   ahead arbitrarily far. *)
let next_time q =
  skim q;
  if q.live = 0 then q.run_horizon
  else
    let t = (Pheap.top q.heap).time in
    match q.run_horizon with
    | None -> Some t
    | Some h -> Some (Time.min t h)

let run ?until ?max_events q =
  let saved_horizon = q.run_horizon in
  (match until with Some h -> q.run_horizon <- Some h | None -> ());
  Fun.protect ~finally:(fun () -> q.run_horizon <- saved_horizon)
  @@ fun () ->
  let budget = Option.value max_events ~default:max_int in
  let rec loop fired =
    if fired < budget then begin
      skim q;
      if q.live > 0 then begin
        let h = Pheap.top q.heap in
        match until with
        | Some horizon when Time.(h.time > horizon) -> q.now <- horizon
        | _ ->
            fire q h;
            loop (fired + 1)
      end
    end
  in
  loop 0;
  (* If we stopped on the horizon with an empty queue, still advance. *)
  (match until with
  | Some horizon when q.live = 0 && Time.(q.now < horizon) -> q.now <- horizon
  | _ -> ());
  (* Queue drained (not horizon- or budget-limited): let observers look
     at the stalled machine.  A hook may schedule new events; we do not
     re-enter the loop for them — this is a post-mortem, not a phase. *)
  if q.drain_hooks <> [] && q.live = 0 then
    List.iter (fun f -> f ()) (List.rev q.drain_hooks)

(* [live] is exact: cancels decrement it immediately. *)
let pending_count q = q.live
let heap_population q = Pheap.size q.heap
let events_fired q = q.fired_count
