module type S = sig
  val name : string
  val boot : (unit -> unit) -> unit -> unit

  type thread

  val spawn : (unit -> unit) -> thread
  val join : thread -> unit
  val yield : unit -> unit

  val set_concurrency : int -> unit

  module Mu : sig
    type t

    val create : unit -> t
    val lock : t -> unit
    val unlock : t -> unit
  end

  module Sem : sig
    type t

    val create : int -> t
    val p : t -> unit
    val v : t -> unit
  end
end

let all : (module S) list =
  [ (module Mt); (module Liblwp); (module Cthreads); (module Activations) ]

let by_name n =
  List.find_opt (fun (module M : S) -> M.name = n) all
