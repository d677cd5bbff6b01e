let page_size = 4096

type check = pid:int -> lib:Sunos_sim.Univ.t option -> proc_exit:bool -> bool

type t = {
  id : int;
  name : string;
  size : int;
  mutable anon_private : bool;
  clone_of : t option;
  cells : (int, Sunos_sim.Univ.t) Hashtbl.t;
  mutable robust : (int * check) list;  (* (offset, check) per robust word *)
  mutable resident : bool array;
}

(* segment ids only need uniqueness; Atomic keeps them unique across
   the bench runner's worker domains *)
let next_id = Atomic.make 0

let create ~name ~size =
  if size <= 0 then invalid_arg "Shared_memory.create: size";
  let pages = (size + page_size - 1) / page_size in
  {
    id = 1 + Atomic.fetch_and_add next_id 1;
    name;
    size;
    anon_private = false;
    clone_of = None;
    cells = Hashtbl.create 16;
    robust = [];
    resident = Array.make pages false;
  }

let clone t =
  {
    id = 1 + Atomic.fetch_and_add next_id 1;
    name = t.name;
    size = t.size;
    anon_private = t.anon_private;
    clone_of = Some t;
    cells = Hashtbl.copy t.cells;
    robust = [];
    resident = Array.copy t.resident;
  }

let id t = t.id
let name t = t.name
let size t = t.size
let anon_private t = t.anon_private
let mark_anon_private t = t.anon_private <- true
let clone_of t = t.clone_of
let page_count t = Array.length t.resident

let check_offset t offset =
  if offset < 0 || offset >= t.size then
    invalid_arg "Shared_memory: offset out of bounds"

let put t ~offset u =
  check_offset t offset;
  if Hashtbl.mem t.cells offset then
    invalid_arg "Shared_memory.put: offset occupied";
  Hashtbl.replace t.cells offset u

let get t ~offset =
  check_offset t offset;
  Hashtbl.find_opt t.cells offset

let remove t ~offset = Hashtbl.remove t.cells offset

let register_robust t ~offset check = t.robust <- (offset, check) :: t.robust

let rec run_checks id ~pid ~lib ~proc_exit hits = function
  | [] -> hits
  | (offset, check) :: rest ->
      let hits =
        if check ~pid ~lib ~proc_exit then (id, offset) :: hits else hits
      in
      run_checks id ~pid ~lib ~proc_exit hits rest

let sweep_robust t ~pid ~lib ~proc_exit hits =
  run_checks t.id ~pid ~lib ~proc_exit hits t.robust

let resident t ~page = t.resident.(page)
let make_resident t ~page = t.resident.(page) <- true
let evict t ~page = t.resident.(page) <- false
let evict_all t = Array.fill t.resident 0 (Array.length t.resident) false
let page_of_offset ~offset = offset / page_size
