(** Signal sets as 64-bit masks, plus the [sigprocmask]-style operations. *)

type t

val empty : t
val full : t
(** All signals.  SIGKILL and SIGSTOP are unmaskable: [mem] treats them as
    never blocked regardless of the set contents. *)

val add : Signo.t -> t -> t
val remove : Signo.t -> t -> t
val mem : Signo.t -> t -> bool
val of_list : Signo.t list -> t
val to_list : t -> Signo.t list
val diff : t -> t -> t
val equal : t -> t -> bool

type how = Sig_block | Sig_unblock | Sig_setmask

val apply : how -> t -> old:t -> t
