(* Fixed log-bucketed histogram (HdrHistogram-style).

   Layout: values 0..63 land in exact buckets 0..63.  For v >= 64 let k
   be the index of v's most significant bit (k >= 6); the 64 subbuckets
   of power-of-two range k are indexed by the 6 bits below the msb:

     idx = (k - 5) * 64 + ((v lsr (k - 6)) - 64)

   so bucket widths double every 64 buckets and the relative error of a
   bucket's upper bound is < 1/64.  Spans are int64 microseconds-scale
   ticks but always fit OCaml's 63-bit int, so the bucket math is plain
   int. *)

let subbits = 6
let sub = 1 lsl subbits (* 64 *)

(* Highest k we can need: OCaml ints are 63-bit, msb index <= 62. *)
let nbuckets = (62 - (subbits - 1)) * sub + sub (* 3712 *)

type t = {
  name : string;
  buckets : int array;
  mutable count : int;
  mutable sum : float;
  mutable min_v : int;
  mutable max_v : int;
}

let create name =
  {
    name;
    buckets = Array.make nbuckets 0;
    count = 0;
    sum = 0.;
    min_v = max_int;
    max_v = min_int;
  }

let msb v =
  (* v >= sub here, so the loop terminates with k >= subbits. *)
  let k = ref 0 in
  let v = ref v in
  while !v > 1 do
    v := !v lsr 1;
    incr k
  done;
  !k

let index v =
  if v < sub then v
  else
    let k = msb v in
    ((k - (subbits - 1)) * sub) + ((v lsr (k - subbits)) - sub)

(* Largest value that maps to [idx] — the bucket's inclusive upper
   bound, what [percentile] reports. *)
let bucket_upper idx =
  if idx < sub then idx
  else
    let k = (idx / sub) + (subbits - 1) in
    let s = idx mod sub in
    (((sub + s) lsl (k - subbits)) + (1 lsl (k - subbits))) - 1

let add t span =
  let v = Stdlib.max 0 (Int64.to_int span) in
  t.buckets.(index v) <- t.buckets.(index v) + 1;
  t.count <- t.count + 1;
  t.sum <- t.sum +. float_of_int v;
  if v < t.min_v then t.min_v <- v;
  if v > t.max_v then t.max_v <- v

let count t = t.count
let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count
let min t = Int64.of_int t.min_v
let max t = Int64.of_int t.max_v

let percentile t p =
  if t.count = 0 then invalid_arg "Histogram.percentile: empty";
  if p < 0. || p > 1. then invalid_arg "Histogram.percentile: fraction";
  let rank =
    Stdlib.max 1 (int_of_float (Float.ceil (p *. float_of_int t.count)))
  in
  let idx = ref 0 in
  let seen = ref t.buckets.(0) in
  while !seen < rank do
    incr idx;
    seen := !seen + t.buckets.(!idx)
  done;
  Int64.of_int (Stdlib.min (bucket_upper !idx) t.max_v)

let merge ~into src =
  for i = 0 to nbuckets - 1 do
    into.buckets.(i) <- into.buckets.(i) + src.buckets.(i)
  done;
  into.count <- into.count + src.count;
  into.sum <- into.sum +. src.sum;
  if src.count > 0 then begin
    if src.min_v < into.min_v then into.min_v <- src.min_v;
    if src.max_v > into.max_v then into.max_v <- src.max_v
  end

let pp_summary ppf t =
  if t.count = 0 then Format.fprintf ppf "%s: (no samples)" t.name
  else
    Format.fprintf ppf "%s: n=%d mean=%.2fus p50=%a p95=%a p99=%a max=%a"
      t.name t.count
      (mean t /. 1_000.)
      Time.pp_us (percentile t 0.5) Time.pp_us (percentile t 0.95)
      Time.pp_us (percentile t 0.99) Time.pp_us
      (Int64.of_int t.max_v)
