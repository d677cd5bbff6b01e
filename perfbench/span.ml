(* In-memory spans around the layer calls the benchmark makes.  Off by
   default; the traced run switches them on and writes them out once, at
   the end, as Chrome trace-event JSON (opens in Perfetto or
   chrome://tracing).  Spans nest by call structure: each records the
   span that was open when it started.  The first [keep] spans are kept
   whole; per-name totals count every span. *)

type t = { id : int; parent : int; name : string; start : float; stop : float }

let now = Unix.gettimeofday
let origin = now ()
let enabled = ref false
let keep = 10_000
let spans : t list ref = ref []
let totals : (string, float) Hashtbl.t = Hashtbl.create 16
let next_id = ref 0
let open_ids : int list ref = ref []

let time name f =
  if not !enabled then f ()
  else begin
    let id = !next_id in
    incr next_id;
    let parent = match !open_ids with p :: _ -> p | [] -> -1 in
    open_ids := id :: !open_ids;
    let start = now () in
    Fun.protect
      ~finally:(fun () ->
        let stop = now () in
        open_ids := List.tl !open_ids;
        let sum = Option.value ~default:0. (Hashtbl.find_opt totals name) in
        Hashtbl.replace totals name (sum +. (stop -. start));
        if id < keep then spans := { id; parent; name; start; stop } :: !spans)
      f
  end

(* Durations of the kept spans called [name]. *)
let durations name =
  List.filter_map
    (fun s -> if s.name = name then Some (s.stop -. s.start) else None)
    !spans

(* Total time in every span whose name satisfies [p]. *)
let total p = Hashtbl.fold (fun n t a -> if p n then a +. t else a) totals 0.

let write path =
  let oc = open_out path in
  let us t = (t -. origin) *. 1e6 in
  output_string oc "{\"traceEvents\": [\n";
  List.iteri
    (fun i s ->
      Printf.fprintf oc
        "%s{\"name\": %S, \"ph\": \"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \
         \"dur\": %.3f, \"args\": {\"id\": %d, \"parent\": %d}}\n"
        (if i = 0 then "" else ",")
        s.name (us s.start)
        (us s.stop -. us s.start)
        s.id s.parent)
    (List.rev !spans);
  Printf.fprintf oc "], \"otherData\": {\"spans\": %d, \"kept\": %d}}\n" !next_id
    (List.length !spans);
  close_out oc
