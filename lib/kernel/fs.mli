(** In-memory filesystem with mappable files.

    Files live in a flat path namespace.  Each file owns a backing
    {!Sunos_hw.Shared_memory} segment: [mmap]ing the file hands that very
    segment to the caller, which is how synchronization variables placed
    in files are shared between processes and outlive their creator (the
    paper's Figure 1).  The segment's page-residency bits double as the
    page cache: reads and writes of non-resident pages cost disk I/O. *)

type file

type t
(** The filesystem (one per machine). *)

val create : unit -> t
val lookup : t -> string -> file option

val create_file : t -> path:string -> ?size:int -> unit -> (file, Errno.t) result
(** Default mappable size: 1 MiB.  [Error EEXIST] if the path exists. *)

val unlink : t -> string -> (unit, Errno.t) result
(** The file disappears from the namespace; its segment (and any mapped
    sync variables) lives on for processes that still map it. *)

val path : file -> string
val segment : file -> Sunos_hw.Shared_memory.t
val size : file -> int
(** Current data length (not the mappable size). *)

val read : file -> pos:int -> len:int -> string
(** Bytes actually available; may be shorter than [len] (EOF). *)

val write : file -> pos:int -> string -> int
(** Returns bytes written; extends the file as needed. *)

val pages_touched : pos:int -> len:int -> int list
(** Page indexes covered by a byte range (for residency charging). *)
