(* The event queue: one binary min-heap ordered by (time, seq).  [seq] is
   unique, so the order is total and any correct heap pops the same
   sequence.

   The heap holds only ints: each entry is a time in nanoseconds, a seq
   and a slot number, kept in three parallel int arrays.  Handles live in
   a slot table and never move.  So a sift writes ints alone: it
   allocates nothing and runs no write barrier, where moving a pointer
   into a long-lived array pays [caml_modify] on every step. *)

type handle = {
  time : Time.t;
  action : unit -> unit;
  mutable cancelled : bool;
  mutable fired : bool;
  owner : t;
}

and t = {
  mutable now : Time.t;
  mutable size : int;  (* heap entries, cancelled ones included *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slot_of : int array;  (* heap entry -> slot *)
  mutable slots : handle array;  (* slot -> handle; [nil] when free *)
  mutable free : int array;  (* stack of free slots *)
  mutable nfree : int;
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

(* What a free slot holds, so the table keeps no fired or dropped action
   alive. *)
let rec nil =
  { time = Time.zero; action = ignore; cancelled = true; fired = true;
    owner = nil_queue }

and nil_queue =
  {
    now = Time.zero; size = 0; times = [||]; seqs = [||]; slot_of = [||];
    slots = [||]; free = [||]; nfree = 0; next_seq = 0; live = 0; dead = 0;
    fired_count = 0; drain_hooks = []; run_horizon = None;
  }

let create () =
  {
    now = Time.zero;
    size = 0;
    times = Array.make 2 0;
    seqs = Array.make 2 0;
    slot_of = Array.make 2 0;
    slots = Array.make 2 nil;
    free = Array.make 2 0;
    nfree = 0;
    next_seq = 0;
    live = 0;
    dead = 0;
    fired_count = 0;
    drain_hooks = [];
    run_horizon = None;
  }

let on_drain q f = q.drain_hooks <- f :: q.drain_hooks

let now q = q.now

(* ------------------------------------------------------------------ *)
(* The heap                                                            *)
(* ------------------------------------------------------------------ *)

let grow q =
  let n = Array.length q.times in
  let extend a fill = Array.append a (Array.make n fill) in
  q.times <- extend q.times 0;
  q.seqs <- extend q.seqs 0;
  q.slot_of <- extend q.slot_of 0;
  q.slots <- extend q.slots nil;
  q.free <- extend q.free 0

(* Heap indices stay within the arrays' length, so the sifts read and
   write the three key arrays without bounds checks. *)
let[@inline] move q ~src ~dst =
  Array.unsafe_set q.times dst (Array.unsafe_get q.times src);
  Array.unsafe_set q.seqs dst (Array.unsafe_get q.seqs src);
  Array.unsafe_set q.slot_of dst (Array.unsafe_get q.slot_of src)

let[@inline] put q i t s slot =
  Array.unsafe_set q.times i t;
  Array.unsafe_set q.seqs i s;
  Array.unsafe_set q.slot_of i slot

(* Does entry [i] come before key (t, s)? *)
let[@inline] before q i t s =
  let ti = Array.unsafe_get q.times i in
  ti < t || (ti = t && Array.unsafe_get q.seqs i < s)

(* Fill the hole at [i] with key (t, s, slot), moving it up past every
   parent that comes after it. *)
let rec sift_up q i t s slot =
  let p = (i - 1) / 2 in
  if i > 0 && not (before q p t s) then begin
    move q ~src:p ~dst:i;
    sift_up q p t s slot
  end
  else put q i t s slot

(* Move the hole at [i] down to a leaf, each step pulling up the child
   that comes first; return the leaf. *)
let rec hole_to_leaf q i =
  let l = (2 * i) + 1 in
  if l >= q.size then i
  else
    let r = l + 1 in
    let c =
      if
        r < q.size
        && before q r (Array.unsafe_get q.times l) (Array.unsafe_get q.seqs l)
      then r
      else l
    in
    move q ~src:c ~dst:i;
    hole_to_leaf q c

(* Remove the top entry and free its slot.  The last entry refills the
   hole bottom-up: it belongs near the leaves, so taking the hole to a
   leaf first and sifting up from there costs one comparison a level
   instead of two. *)
let drop_top q =
  let slot = q.slot_of.(0) in
  q.slots.(slot) <- nil;
  q.free.(q.nfree) <- slot;
  q.nfree <- q.nfree + 1;
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then
    sift_up q (hole_to_leaf q 0) q.times.(n) q.seqs.(n) q.slot_of.(n)

let[@inline] top q = q.slots.(q.slot_of.(0))

(* ------------------------------------------------------------------ *)
(* Scheduling and cancelling                                           *)
(* ------------------------------------------------------------------ *)

let max_time = Int64.of_int max_int

let at q time action =
  if Time.(time < q.now) then
    invalid_arg "Eventq.at: scheduling in the past";
  if Time.(time > max_time) then
    invalid_arg "Eventq.at: time beyond max_int ns";
  let h = { time; action; cancelled = false; fired = false; owner = q } in
  if q.size = Array.length q.times then grow q;
  (* slots [0, size + nfree) are each held by a heap entry or free, so
     with none free, slot [size] is fresh *)
  let slot =
    if q.nfree > 0 then begin
      q.nfree <- q.nfree - 1;
      q.free.(q.nfree)
    end
    else q.size
  in
  q.slots.(slot) <- h;
  let i = q.size in
  q.size <- i + 1;
  sift_up q i (Int64.to_int time) q.next_seq slot;
  q.next_seq <- q.next_seq + 1;
  q.live <- q.live + 1;
  h

let after q d action = at q (Time.add q.now d) action

(* Rebuild the heap from its live population.  Cancellation is lazy (the
   heap keeps cancelled handles until they surface), so a cancel-heavy
   workload — timer re-arms, poll timeouts — would otherwise carry an
   arbitrarily large dead population through every sift.  Compaction
   runs when the dead outnumber the live (> ~50% of the population),
   which keeps the heap within 2x of the live set and costs
   O(live log live), amortized against the cancels that triggered it.
   The survivors are re-inserted in place (entry [i] is read before the
   rebuilt heap, which never reaches past it, can overwrite it) and keep
   their slots; the dead free theirs. *)
let compact q =
  let n = q.size in
  q.size <- 0;
  for i = 0 to n - 1 do
    let slot = q.slot_of.(i) in
    if q.slots.(slot).cancelled then begin
      q.slots.(slot) <- nil;
      q.free.(q.nfree) <- slot;
      q.nfree <- q.nfree + 1
    end
    else begin
      sift_up q q.size q.times.(i) q.seqs.(i) slot;
      q.size <- q.size + 1
    end
  done;
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

(* ------------------------------------------------------------------ *)
(* Firing                                                              *)
(* ------------------------------------------------------------------ *)

(* Drop the cancelled handles at the top of the heap (lazy deletion;
   compaction bounds how many can be in flight).  Afterwards the heap is
   empty exactly when [q.live = 0], and otherwise its top is the live
   head.  [dead > 0] implies a non-empty heap. *)
let rec skim q =
  if q.dead > 0 && (top q).cancelled then begin
    drop_top q;
    q.dead <- q.dead - 1;
    skim q
  end

(* Fire [h], the live head at the top of the heap. *)
let fire q h =
  drop_top q;
  q.now <- h.time;
  h.fired <- true;
  q.live <- q.live - 1;
  q.fired_count <- q.fired_count + 1;
  h.action ()

let run_one q =
  skim q;
  if q.live = 0 then false
  else begin
    fire q (top q);
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
    let t = (top q).time in
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
        let h = top q in
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
let heap_population q = q.size
let events_fired q = q.fired_count
