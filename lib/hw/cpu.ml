module Time = Sunos_sim.Time

type t = {
  id : int;
  mutable occupant : int option;
  mutable need_resched : bool;
  mutable last_change : Time.t;
  mutable busy : Time.span;
  mutable idle : Time.span;
}

let create ~id =
  { id; occupant = None; need_resched = false; last_change = Time.zero;
    busy = 0L; idle = 0L }

let id t = t.id
let occupant t = t.occupant

let account t ~now =
  let d = Time.diff now t.last_change in
  (match t.occupant with
  | Some _ -> t.busy <- Int64.add t.busy d
  | None -> t.idle <- Int64.add t.idle d);
  t.last_change <- now

let set_occupant t ~now occ =
  account t ~now;
  t.occupant <- occ

let need_resched t = t.need_resched
let set_need_resched t b = t.need_resched <- b

let busy_time t ~now =
  let extra =
    match t.occupant with Some _ -> Time.diff now t.last_change | None -> 0L
  in
  Int64.add t.busy extra

let idle_time t ~now =
  let extra =
    match t.occupant with None -> Time.diff now t.last_change | Some _ -> 0L
  in
  Int64.add t.idle extra

let utilization t ~now =
  let b = Int64.to_float (busy_time t ~now)
  and i = Int64.to_float (idle_time t ~now) in
  if b +. i <= 0. then 0. else b /. (b +. i)
