(* Priority-indexed multi-queue with an occupancy bitmask.

   One FIFO bucket per priority level plus a bitmask of the non-empty
   buckets, so "highest occupied priority" is a find-highest-set over a
   couple of words instead of a scan of every level.  Consumers that use
   lazy deletion (the dispatcher's stale run-queue entries, the thread
   library's stopped threads) prune dead entries from bucket fronts
   through [peek_live] or [take]; the mask tracks non-emptiness exactly,
   and is therefore only conservative about *liveness* — a set bit may
   cover a bucket holding nothing but stale entries until a prune drains
   it.  Every pruned entry was pushed once, so all operations stay O(1)
   amortized.

   A level's FIFO is made at its first push: until then the level holds
   the queue's one shared [empty] FIFO, which nothing ever pushes to.  A
   machine is booted once per explored schedule, and most of its 160
   kernel levels (and 64 library levels per process) are never used. *)

(* 62 bits per word keeps the arithmetic safely inside an OCaml int on
   any platform dune supports. *)
let bits_per_word = 62

type 'a t = {
  buckets : 'a Queue.t array;  (* [empty] until the level's first push *)
  empty : 'a Queue.t;  (* shared by every unused level; always empty *)
  mask : int array;  (* bit p%62 of word p/62 set iff buckets.(p) non-empty *)
  mutable size : int;  (* queued entries, stale ones included *)
}

let create ~levels =
  if levels <= 0 then invalid_arg "Prioq.create: levels";
  let empty = Queue.create () in
  {
    buckets = Array.make levels empty;
    empty;
    mask = Array.make ((levels + bits_per_word - 1) / bits_per_word) 0;
    size = 0;
  }

let levels t = Array.length t.buckets

let set_bit t p =
  t.mask.(p / bits_per_word) <-
    t.mask.(p / bits_per_word) lor (1 lsl (p mod bits_per_word))

let clear_bit t p =
  t.mask.(p / bits_per_word) <-
    t.mask.(p / bits_per_word) land lnot (1 lsl (p mod bits_per_word))

let push t prio x =
  let q = t.buckets.(prio) in
  let q =
    if q == t.empty then begin
      let q = Queue.create () in
      t.buckets.(prio) <- q;
      q
    end
    else q
  in
  if Queue.is_empty q then set_bit t prio;
  Queue.add x q;
  t.size <- t.size + 1

(* Index of the highest set bit of [w > 0]: branchless-ish binary probe. *)
let highest_bit w =
  let r = ref 0 and w = ref w in
  if !w lsr 32 <> 0 then begin w := !w lsr 32; r := !r + 32 end;
  if !w lsr 16 <> 0 then begin w := !w lsr 16; r := !r + 16 end;
  if !w lsr 8 <> 0 then begin w := !w lsr 8; r := !r + 8 end;
  if !w lsr 4 <> 0 then begin w := !w lsr 4; r := !r + 4 end;
  if !w lsr 2 <> 0 then begin w := !w lsr 2; r := !r + 2 end;
  if !w lsr 1 <> 0 then incr r;
  !r

(* Highest non-empty priority <= [p], or -1. *)
let top_below t p =
  let p = min p (levels t - 1) in
  if p < 0 then -1
  else begin
    let wi = p / bits_per_word in
    (* mask off bits above p in its own word, then walk down *)
    let w0 = t.mask.(wi) land ((1 lsl (p mod bits_per_word + 1)) - 1) in
    if w0 <> 0 then (wi * bits_per_word) + highest_bit w0
    else begin
      let rec down i =
        if i < 0 then -1
        else if t.mask.(i) <> 0 then (i * bits_per_word) + highest_bit t.mask.(i)
        else down (i - 1)
      in
      down (wi - 1)
    end
  end

let top t = top_below t (levels t - 1)

(* Drop entries failing [keep] from the front of bucket [prio]; return the
   first surviving entry without removing it.  Clears the occupancy bit if
   the prune empties the bucket. *)
let peek_live t prio ~keep =
  let q = t.buckets.(prio) in
  let rec go () =
    match Queue.peek_opt q with
    | None ->
        clear_bit t prio;
        None
    | Some x ->
        if keep x then Some x
        else begin
          ignore (Queue.pop q);
          t.size <- t.size - 1;
          go ()
        end
  in
  go ()

let drop_front t prio =
  let q = t.buckets.(prio) in
  ignore (Queue.pop q);
  t.size <- t.size - 1;
  if Queue.is_empty q then clear_bit t prio

(* Admit one live entry from the highest level that still has one.  A
   level that held only dead entries is drained by [Schedctl.take] and
   the search moves down.  Written with every argument passed along
   rather than as a local loop, so a pick allocates no closure. *)
let rec take_below ~site ~obj ~foot ~want ~live t limit =
  let prio = top_below t limit in
  if prio < 0 then None
  else begin
    let q = t.buckets.(prio) in
    let before = Queue.length q in
    let r = Schedctl.take ~site ~obj ~foot ~want ~live q in
    t.size <- t.size - (before - Queue.length q);
    if Queue.is_empty q then clear_bit t prio;
    match r with
    | Some _ -> r
    | None -> take_below ~site ~obj ~foot ~want ~live t (prio - 1)
  end

let take ~site ~obj ~foot ~want ~live t =
  take_below ~site ~obj ~foot ~want ~live t (levels t - 1)

(* Candidate enumeration: the kernel dispatcher lists the live entries
   of a bucket that a CPU may run and removes the chosen one from
   wherever it sits.  It does so under a schedule driver, or when the
   front is bound to another CPU; otherwise it takes the front with
   peek_live/drop_front. *)

let live_entries t prio ~keep =
  List.rev
    (Queue.fold
       (fun acc x -> if keep x then x :: acc else acc)
       [] t.buckets.(prio))

let remove t prio x =
  let q = t.buckets.(prio) in
  let removed = Schedctl.remove q x in
  if removed then t.size <- t.size - 1;
  if Queue.is_empty q then clear_bit t prio;
  removed

let length t = t.size
let is_empty t = t.size = 0
