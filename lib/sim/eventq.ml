(* The event queue: one binary min-heap ordered by (time, seq), and a
   one-entry register beside it.  [seq] is unique, so the order is total
   and any correct heap pops the same sequence.

   The heap holds only ints: each entry is a time in nanoseconds, a seq
   and a slot number, kept in three parallel int arrays.  Handles live in
   a slot table and never move.  So a sift writes ints alone: it
   allocates nothing and runs no write barrier, where moving a pointer
   into a long-lived array pays [caml_modify] on every step.

   An armed entry owns no slot: its slot number is [lnot tag], negative
   for the small tag its owner gave it, and firing it calls the queue's
   one target function with the tag and the entry's seq.  Arming one
   writes the three ints and nothing else.  An armed entry cannot be
   cancelled; the target tells a stale firing by the seq.

   The register holds one armed entry out of the heap.  [arm] fills it
   when it is empty; an arm that ends strictly earlier than the held
   entry moves that entry into the heap, under its own seq, and takes
   its place; any other arm goes to the heap.  Firing takes the earlier
   of the held entry and the heap's top by (time, seq).  An entry's key
   never changes wherever it waits, so the firing order is the one the
   heap alone would give; an entry that ends before everything queued
   when it is armed just skips the push and the pop.

   The clock is an int, which firing stores with no box and no write
   barrier.  [now] boxes it when it is read after it moved, and keeps
   that box until it moves again.  A [run] that stops on a horizon keeps
   the horizon's own box, so a horizon past [max_int] ns reads back
   exactly; the int clock then wraps negative, and [arm] refuses it. *)

type handle = {
  action : unit -> unit;
  mutable cancelled : bool;
  mutable fired : bool;
  owner : t;
}

and t = {
  mutable clock : int;
      (* now, in ns; negative only after a horizon past [max_int] *)
  mutable boxed : Time.t;  (* the clock when [now] last boxed it *)
  mutable boxed_at : int;  (* the int clock [boxed] stands for *)
  mutable held_time : int;  (* the register: its entry's key and tag *)
  mutable held_seq : int;  (* -1 when the register is empty *)
  mutable held_tag : int;
  mutable held_fired : int;  (* entries fired from the register *)
  mutable size : int;  (* heap entries, cancelled ones included *)
  mutable times : int array;
  mutable seqs : int array;
  mutable slot_of : int array;  (* heap entry -> slot *)
  mutable slots : handle array;  (* slot -> handle; [nil] when free *)
  mutable nslots : int;
      (* slots made so far: [0, nslots) are each held by a heap entry or
         free.  Armed entries hold none, so this is not [size + nfree] *)
  mutable free : int array;  (* stack of free slots *)
  mutable nfree : int;
  mutable target : int -> int -> unit;  (* what an armed entry calls *)
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
         any: [time_to_next] clamps to it so run-ahead accounting never
         outruns a horizon-limited run *)
}

(* The target until [set_target]: a queue that arms before it has one is
   wired wrongly, and dropping its entries would lose their work. *)
let no_target _ _ = invalid_arg "Eventq: armed entry with no target"

(* What a free slot holds, so the table keeps no fired or dropped action
   alive. *)
let rec nil =
  { action = ignore; cancelled = true; fired = true; owner = nil_queue }

and nil_queue =
  {
    clock = 0; boxed = Time.zero; boxed_at = 0; held_time = 0;
    held_seq = -1; held_tag = 0; held_fired = 0; size = 0; times = [||];
    seqs = [||]; slot_of = [||]; slots = [||]; nslots = 0; free = [||];
    nfree = 0; target = no_target; next_seq = 0; live = 0; dead = 0;
    fired_count = 0; drain_hooks = []; run_horizon = None;
  }

let create () =
  {
    clock = 0;
    boxed = Time.zero;
    boxed_at = 0;
    held_time = 0;
    held_seq = -1;
    held_tag = 0;
    held_fired = 0;
    size = 0;
    times = Array.make 2 0;
    seqs = Array.make 2 0;
    slot_of = Array.make 2 0;
    slots = Array.make 2 nil;
    nslots = 0;
    free = Array.make 2 0;
    nfree = 0;
    target = no_target;
    next_seq = 0;
    live = 0;
    dead = 0;
    fired_count = 0;
    drain_hooks = [];
    run_horizon = None;
  }

let on_drain q f = q.drain_hooks <- f :: q.drain_hooks

let now q =
  if q.boxed_at <> q.clock then begin
    q.boxed <- Int64.of_int q.clock;
    q.boxed_at <- q.clock
  end;
  q.boxed

(* The clock as an [int64] for arithmetic and comparison, where the
   compiler keeps it unboxed: the box [now] keeps, while it stands for
   the clock, else the int clock widened. *)
let[@inline] clock64 q =
  if q.boxed_at = q.clock then q.boxed else Int64.of_int q.clock

(* Leave the clock at horizon [h], keeping [h]'s own box. *)
let stop_at q h =
  q.clock <- Int64.to_int h;
  q.boxed <- h;
  q.boxed_at <- q.clock

(* ------------------------------------------------------------------ *)
(* The heap                                                            *)
(* ------------------------------------------------------------------ *)

(* Double an array, filling the new half with [fill]. *)
let extend a fill = Array.append a (Array.make (Array.length a) fill)

let grow_heap q =
  q.times <- extend q.times 0;
  q.seqs <- extend q.seqs 0;
  q.slot_of <- extend q.slot_of 0

let grow_slots q =
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

let free_slot q slot =
  q.slots.(slot) <- nil;
  q.free.(q.nfree) <- slot;
  q.nfree <- q.nfree + 1

(* Remove the top entry and free its slot, if it has one.  The last
   entry refills the hole bottom-up: it belongs near the leaves, so
   taking the hole to a leaf first and sifting up from there costs one
   comparison a level instead of two. *)
let drop_top q =
  let slot = q.slot_of.(0) in
  if slot >= 0 then free_slot q slot;
  let n = q.size - 1 in
  q.size <- n;
  if n > 0 then
    sift_up q (hole_to_leaf q 0) q.times.(n) q.seqs.(n) q.slot_of.(n)

(* Is entry [i] a cancelled handle?  Armed entries never are. *)
let[@inline] cancelled q i =
  let slot = q.slot_of.(i) in
  slot >= 0 && q.slots.(slot).cancelled

(* ------------------------------------------------------------------ *)
(* Scheduling and cancelling                                           *)
(* ------------------------------------------------------------------ *)

let max_time = Int64.of_int max_int
let past () = invalid_arg "Eventq.at: scheduling in the past"
let beyond () = invalid_arg "Eventq.at: time beyond max_int ns"

(* Put key (t, seq, slot) in the heap. *)
let insert q t seq slot =
  if q.size = Array.length q.times then grow_heap q;
  let i = q.size in
  q.size <- i + 1;
  sift_up q i t seq slot

(* The seq of a new live entry. *)
let take_seq q =
  let seq = q.next_seq in
  q.next_seq <- seq + 1;
  q.live <- q.live + 1;
  seq

(* Queue a handle for [action] at [time].  The checks compare [int64]s
   with the primitives, which keep them unboxed, so neither the clock
   nor [after]'s sum is boxed. *)
let[@inline] schedule q time action =
  if time < clock64 q then past ();
  if time > max_time then beyond ();
  let h = { action; cancelled = false; fired = false; owner = q } in
  let slot =
    if q.nfree > 0 then begin
      q.nfree <- q.nfree - 1;
      q.free.(q.nfree)
    end
    else begin
      if q.nslots = Array.length q.slots then grow_slots q;
      q.nslots <- q.nslots + 1;
      q.nslots - 1
    end
  in
  q.slots.(slot) <- h;
  insert q (Int64.to_int time) (take_seq q) slot;
  h

let at q time action = schedule q time action
let after q d action = schedule q (Int64.add (clock64 q) d) action

let set_target q f = q.target <- f

let span_ns d =
  if d > max_time then beyond ()
  else if d < Int64.of_int min_int then past ()
  else Int64.to_int d

let hold q t seq tag =
  q.held_time <- t;
  q.held_seq <- seq;
  q.held_tag <- tag

(* [now + d] is checked in ints: the clock is never negative, so a sum
   past [max_int] wraps negative, and so does a clock that a horizon
   left past it.  The new entry's seq is above every queued one, so it
   comes before the held entry exactly when it ends strictly earlier. *)
let arm q ~tag d =
  if tag < 0 then invalid_arg "Eventq.arm: negative tag";
  if d < 0 then past ();
  let now = q.clock in
  let t = now + d in
  if now < 0 || t < 0 then beyond ();
  let seq = take_seq q in
  if q.held_seq < 0 then hold q t seq tag
  else if t < q.held_time then begin
    insert q q.held_time q.held_seq (lnot q.held_tag);
    hold q t seq tag
  end
  else insert q t seq (lnot tag);
  seq

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
    if cancelled q i then free_slot q slot
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
   empty or its top is live, and [q.live = 0] exactly when it is empty
   and so is the register.  [dead > 0] implies a non-empty heap. *)
let rec skim_dead q =
  if cancelled q 0 then begin
    drop_top q;
    q.dead <- q.dead - 1;
    if q.dead > 0 then skim_dead q
  end

let[@inline] skim q = if q.dead > 0 then skim_dead q

(* After [skim], with an entry live: does the held one come first? *)
let[@inline] held_first q =
  q.held_seq >= 0 && (q.size = 0 || not (before q 0 q.held_time q.held_seq))

(* After [skim], with an entry live: the time of the first. *)
let[@inline] next_time q =
  if q.held_seq < 0 then q.times.(0)
  else if q.size = 0 || q.held_time < q.times.(0) then q.held_time
  else q.times.(0)

(* Fire the live head: the held entry or the top of the heap. *)
let fire q =
  q.live <- q.live - 1;
  q.fired_count <- q.fired_count + 1;
  if held_first q then begin
    let tag = q.held_tag and seq = q.held_seq in
    q.held_seq <- -1;
    q.held_fired <- q.held_fired + 1;
    q.clock <- q.held_time;
    q.target tag seq
  end
  else begin
    let slot = q.slot_of.(0) and t = q.times.(0) in
    if slot >= 0 then begin
      let h = q.slots.(slot) in
      drop_top q;
      q.clock <- t;
      h.fired <- true;
      h.action ()
    end
    else begin
      let seq = q.seqs.(0) in
      drop_top q;
      q.clock <- t;
      q.target (lnot slot) seq
    end
  end

let run_one q =
  skim q;
  if q.live = 0 then false
  else begin
    fire q;
    true
  end

(* The time to the earliest instant at which anything can happen — the
   first live event, clamped to the horizon of the [run] currently
   draining us — capped at [cap], which is all that binds when nothing
   is pending and no horizon is set.  The horizon is an [int64] and may
   lie anywhere, so its gap is taken in [int64]; a live entry's time
   is an int no earlier than the clock.  Nothing is boxed. *)
let time_to_next q ~cap =
  skim q;
  let cap =
    match q.run_horizon with
    | None -> cap
    | Some h ->
        let gap = Int64.sub h (clock64 q) in
        if gap < Int64.of_int cap then Int64.to_int gap else cap
  in
  if q.live = 0 then cap
  else
    let gap = next_time q - q.clock in
    if gap < cap then gap else cap

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
        match until with
        | Some horizon when Int64.of_int (next_time q) > horizon ->
            stop_at q horizon
        | _ ->
            fire q;
            loop (fired + 1)
      end
    end
  in
  loop 0;
  (* If we stopped on the horizon with an empty queue, still advance. *)
  (match until with
  | Some horizon when q.live = 0 && clock64 q < horizon ->
      stop_at q horizon
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
let register_fired q = q.held_fired
