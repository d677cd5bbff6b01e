module Shm = Sunos_hw.Shared_memory

type file = {
  path : string;
  seg : Shm.t;
  mutable data : Bytes.t;
  mutable len : int;
}

type t = { files : (string, file) Hashtbl.t }

let create () = { files = Hashtbl.create 32 }
let lookup t p = Hashtbl.find_opt t.files p

let create_file t ~path ?(size = 1 lsl 20) () =
  if Hashtbl.mem t.files path then Error Errno.EEXIST
  else begin
    let f =
      {
        path;
        seg = Shm.create ~name:path ~size;
        data = Bytes.create 256;
        len = 0;
      }
    in
    Hashtbl.replace t.files path f;
    Ok f
  end

let unlink t p =
  if Hashtbl.mem t.files p then begin
    Hashtbl.remove t.files p;
    Ok ()
  end
  else Error Errno.ENOENT

let path f = f.path
let segment f = f.seg
let size f = f.len

let ensure_capacity f n =
  if n > Bytes.length f.data then begin
    let cap = ref (Bytes.length f.data) in
    while !cap < n do
      cap := !cap * 2
    done;
    let bigger = Bytes.create !cap in
    Bytes.blit f.data 0 bigger 0 f.len;
    f.data <- bigger
  end

let read f ~pos ~len =
  if pos >= f.len || len <= 0 then ""
  else
    let n = min len (f.len - pos) in
    Bytes.sub_string f.data pos n

let write f ~pos s =
  let n = String.length s in
  if n = 0 then 0
  else begin
    ensure_capacity f (pos + n);
    if pos > f.len then Bytes.fill f.data f.len (pos - f.len) '\000';
    Bytes.blit_string s 0 f.data pos n;
    f.len <- max f.len (pos + n);
    n
  end

let pages_touched ~pos ~len =
  if len <= 0 then []
  else begin
    let first = Shm.page_of_offset ~offset:pos in
    let last = Shm.page_of_offset ~offset:(pos + len - 1) in
    List.init (last - first + 1) (fun i -> first + i)
  end
