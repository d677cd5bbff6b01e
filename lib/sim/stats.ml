module Hist = struct
  type t = {
    name : string;
    capacity : int;
    mutable samples : Time.span array;
    mutable len : int;
    mutable stride : int; (* keep every [stride]-th sample once full *)
    mutable skip : int;
    mutable count : int;
    mutable sum : float;
    mutable min_v : Time.span;
    mutable max_v : Time.span;
    mutable sorted : bool;
  }

  let create ?(capacity = 100_000) name =
    {
      name;
      capacity;
      samples = Array.make (Stdlib.min 1024 capacity) 0L;
      len = 0;
      stride = 1;
      skip = 0;
      count = 0;
      sum = 0.;
      min_v = Int64.max_int;
      max_v = Int64.min_int;
      sorted = true;
    }

  let store t x =
    if t.len = Array.length t.samples then
      if t.len < t.capacity then begin
        let bigger =
          Array.make (Stdlib.min t.capacity (2 * t.len)) 0L
        in
        Array.blit t.samples 0 bigger 0 t.len;
        t.samples <- bigger
      end
      else begin
        (* Reservoir is full: halve it deterministically (keep the even
           positions) and double the stride so future samples thin out. *)
        let half = t.len / 2 in
        for i = 0 to half - 1 do
          t.samples.(i) <- t.samples.(2 * i)
        done;
        t.len <- half;
        t.stride <- t.stride * 2
      end;
    if t.len < Array.length t.samples then begin
      t.samples.(t.len) <- x;
      t.len <- t.len + 1;
      t.sorted <- false
    end

  let add t x =
    t.count <- t.count + 1;
    t.sum <- t.sum +. Int64.to_float x;
    if Time.(x < t.min_v) then t.min_v <- x;
    if Time.(x > t.max_v) then t.max_v <- x;
    if t.skip = 0 then begin
      store t x;
      t.skip <- t.stride - 1
    end
    else t.skip <- t.skip - 1

  let count t = t.count
  let mean t = if t.count = 0 then nan else t.sum /. float_of_int t.count
  let min t = t.min_v
  let max t = t.max_v

  let ensure_sorted t =
    if not t.sorted then begin
      let sub = Array.sub t.samples 0 t.len in
      Array.sort Int64.compare sub;
      Array.blit sub 0 t.samples 0 t.len;
      t.sorted <- true
    end

  let percentile t p =
    if t.len = 0 then invalid_arg "Stats.Hist.percentile: empty";
    if p < 0. || p > 1. then invalid_arg "Stats.Hist.percentile: fraction";
    ensure_sorted t;
    let idx = int_of_float (Float.round (p *. float_of_int (t.len - 1))) in
    t.samples.(idx)

  let name t = t.name

  let reset t =
    t.len <- 0;
    t.stride <- 1;
    t.skip <- 0;
    t.count <- 0;
    t.sum <- 0.;
    t.min_v <- Int64.max_int;
    t.max_v <- Int64.min_int;
    t.sorted <- true

  let pp_summary ppf t =
    if t.count = 0 then Format.fprintf ppf "%s: (no samples)" t.name
    else
      Format.fprintf ppf
        "%s: n=%d mean=%.2fus p50=%a p90=%a p99=%a max=%a" t.name t.count
        (mean t /. 1_000.) Time.pp_us (percentile t 0.5) Time.pp_us
        (percentile t 0.9) Time.pp_us (percentile t 0.99) Time.pp_us t.max_v
end
