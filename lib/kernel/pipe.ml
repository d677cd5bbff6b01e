type t = {
  capacity : int;
  buf : Buffer.t;
  mutable read_closed : bool;
  mutable write_closed : bool;
  on_read : Readiness.t;  (* data written, or the writers closed *)
  on_write : Readiness.t;  (* room made, or the readers closed *)
}

let default_capacity = 5120

let create ?(capacity = default_capacity) () =
  {
    capacity;
    buf = Buffer.create 256;
    read_closed = false;
    write_closed = false;
    on_read = Readiness.create ();
    on_write = Readiness.create ();
  }

let buffered t = Buffer.length t.buf
let readable t = buffered t > 0 || t.write_closed
let writable t = buffered t < t.capacity || t.read_closed
let read_closed t = t.read_closed
let write_closed t = t.write_closed
let read_readiness t = t.on_read
let write_readiness t = t.on_write

let read t ~len =
  let n = min len (buffered t) in
  if n = 0 then ""
  else begin
    let all = Buffer.contents t.buf in
    let out = String.sub all 0 n in
    Buffer.clear t.buf;
    Buffer.add_substring t.buf all n (String.length all - n);
    Readiness.fire t.on_write;
    out
  end

let write t s =
  let room = t.capacity - buffered t in
  let n = min room (String.length s) in
  if n > 0 then begin
    Buffer.add_substring t.buf s 0 n;
    Readiness.fire t.on_read
  end;
  n

let close_read t =
  t.read_closed <- true;
  Readiness.fire t.on_write

let close_write t =
  t.write_closed <- true;
  Readiness.fire t.on_read
