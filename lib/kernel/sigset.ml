type t = int64

let bit s = Int64.shift_left 1L s
let empty = 0L
let full = -1L
let add s t = Int64.logor t (bit s)
let remove s t = Int64.logand t (Int64.lognot (bit s))

let mem s t =
  if s = Signo.sigkill || s = Signo.sigstop then false
  else Int64.logand t (bit s) <> 0L

let of_list l = List.fold_left (fun acc s -> add s acc) empty l

let to_list t =
  List.filter (fun s -> Int64.logand t (bit s) <> 0L) Signo.all

let union = Int64.logor
let diff a b = Int64.logand a (Int64.lognot b)
let equal = Int64.equal

type how = Sig_block | Sig_unblock | Sig_setmask

let apply how set ~old =
  match how with
  | Sig_block -> union old set
  | Sig_unblock -> diff old set
  | Sig_setmask -> set
