(* splitmix64: tiny, fast, passes BigCrush for this usage; the classic
   constants below are from Steele et al., "Fast splittable pseudorandom
   number generators" (OOPSLA 2014). *)

type t = { mutable state : int64 }

let golden = 0x9E3779B97F4A7C15L

let create ~seed = { state = seed }

let next t =
  t.state <- Int64.add t.state golden;
  let z = t.state in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30))
      0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let int64 = next
let split t = create ~seed:(next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free for our purposes: modulo bias is negligible with a
     64-bit source and the small bounds used in workloads. *)
  let v = Int64.shift_right_logical (next t) 1 in
  Int64.to_int (Int64.rem v (Int64.of_int bound))

let float t x =
  let v = Int64.to_float (Int64.shift_right_logical (next t) 11) in
  x *. (v /. 9007199254740992.0 (* 2^53 *))

let bool t = Int64.logand (next t) 1L = 1L

let exponential t ~mean =
  let u = float t 1.0 in
  let u = if u <= 0. then epsilon_float else u in
  -.mean *. log u

let pick t arr =
  if Array.length arr = 0 then invalid_arg "Rng.pick: empty array";
  arr.(int t (Array.length arr))

let shuffle t arr =
  for i = Array.length arr - 1 downto 1 do
    let j = int t (i + 1) in
    let tmp = arr.(i) in
    arr.(i) <- arr.(j);
    arr.(j) <- tmp
  done
