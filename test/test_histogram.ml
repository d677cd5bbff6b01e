(* The log-bucketed histogram behind the C100k latency figures: exact
   small values, bounded relative error above, exact merge.  These are
   the properties the server-scaling figure leans on — a p99 that moved
   because of bucketing (rather than the server) would invalidate the
   whole plot. *)

module H = Sunos_sim.Histogram
module Time = Sunos_sim.Time

let span_i64 (s : Time.span) = (s : int64)
let add_i h v = H.add h (Time.ns v)
let pct_i h p = Int64.to_int (span_i64 (H.percentile h p))

(* Values 0..63 live in singleton buckets: every quantile is exact. *)
let test_exact_region () =
  let h = H.create "exact" in
  for v = 0 to 63 do
    add_i h v
  done;
  Alcotest.(check int) "count" 64 (H.count h);
  Alcotest.(check int) "p0 = min" 0 (pct_i h 0.);
  Alcotest.(check int) "median of 0..63" 31 (pct_i h 0.5);
  Alcotest.(check int) "p100 = max" 63 (pct_i h 1.0);
  Alcotest.(check int) "min exact" 0 (Int64.to_int (span_i64 (H.min h)));
  Alcotest.(check int) "max exact" 63 (Int64.to_int (span_i64 (H.max h)))

(* Above 63 a bucket spans [2^k/64] values: the reported quantile is an
   upper bound within 1/64 relative error.  Exercise the boundaries on
   both sides of several powers of two — where an off-by-one in the
   index or upper-bound arithmetic would bite. *)
let test_bucket_boundaries () =
  List.iter
    (fun v ->
      let h = H.create "bound" in
      add_i h v;
      let r = pct_i h 0.5 in
      Alcotest.(check bool)
        (Printf.sprintf "upper bound for %d (got %d)" v r)
        true (r >= v);
      let slack = (v / 64) + 1 in
      Alcotest.(check bool)
        (Printf.sprintf "within one subbucket of %d (got %d)" v r)
        true
        (r - v <= slack))
    [
      63;
      64;
      65;
      127;
      128;
      129;
      255;
      256;
      4095;
      4096;
      4097;
      1_000_000;
      1_048_575;
      1_048_576;
      123_456_789;
      max_int / 2;
    ]

(* Negative spans (clock skew upstream) clamp to zero instead of
   corrupting an index. *)
let test_negative_clamps () =
  let h = H.create "neg" in
  add_i h (-5);
  add_i h 10;
  Alcotest.(check int) "count" 2 (H.count h);
  Alcotest.(check int) "min clamped" 0 (Int64.to_int (span_i64 (H.min h)))

(* percentile is clamped to the observed max: a lone sample in a wide
   bucket must not report the bucket's upper edge. *)
let test_max_clamp () =
  let h = H.create "clamp" in
  add_i h 1_000_000;
  Alcotest.(check int) "p99 clamped to max" 1_000_000 (pct_i h 0.99)

(* Monotonicity: for any recorded distribution, p <= q implies
   percentile p <= percentile q. *)
let test_quantile_monotone () =
  let h = H.create "mono" in
  (* a lumpy, multi-decade distribution *)
  let seed = ref 12345 in
  for _ = 1 to 5_000 do
    seed := (!seed * 1103515245) + 12345;
    let r = abs !seed in
    add_i h (1 + (r mod 1_000_000))
  done;
  let ps = [ 0.; 0.1; 0.25; 0.5; 0.75; 0.9; 0.95; 0.99; 0.999; 1.0 ] in
  let _ =
    List.fold_left
      (fun prev p ->
        let v = pct_i h p in
        Alcotest.(check bool)
          (Printf.sprintf "p%.3f (%d) >= previous (%d)" p v prev)
          true (v >= prev);
        v)
      0 ps
  in
  ()

(* Merge is exact: two shards' histograms merged must equal one
   histogram that saw every sample — same count, mean, and every
   percentile. *)
let test_merge_exact () =
  let a = H.create "shard-a" and b = H.create "shard-b" in
  let all = H.create "all" in
  let seed = ref 999 in
  for i = 1 to 4_000 do
    seed := (!seed * 1103515245) + 12345;
    let v = abs !seed mod 2_000_000 in
    add_i (if i mod 2 = 0 then a else b) v;
    add_i all v
  done;
  H.merge ~into:a b;
  Alcotest.(check int) "merged count" (H.count all) (H.count a);
  Alcotest.(check (float 1e-9)) "merged mean" (H.mean all) (H.mean a);
  List.iter
    (fun p ->
      Alcotest.(check int)
        (Printf.sprintf "merged p%.2f" p)
        (pct_i all p) (pct_i a p))
    [ 0.; 0.5; 0.9; 0.95; 0.99; 1.0 ];
  Alcotest.(check int) "merged max"
    (Int64.to_int (span_i64 (H.max all)))
    (Int64.to_int (span_i64 (H.max a)))

let test_empty_and_raises () =
  let h = H.create "empty" in
  Alcotest.(check int) "empty count" 0 (H.count h);
  Alcotest.(check bool) "empty mean is nan" true (Float.is_nan (H.mean h));
  (match H.percentile h 0.5 with
  | _ -> Alcotest.fail "percentile on empty must raise"
  | exception Invalid_argument _ -> ());
  add_i h 42;
  match H.percentile h 1.5 with
  | _ -> Alcotest.fail "percentile out of range must raise"
  | exception Invalid_argument _ -> ()

(* ---------------------- qcheck properties ---------------------------- *)

let qt = QCheck_alcotest.to_alcotest
let probe_ps = [ 0.; 0.25; 0.5; 0.9; 0.99; 1.0 ]

(* Merging an empty histogram is the identity in both directions:
   count, mean, max, and every percentile are those of the populated
   side alone. *)
let prop_merge_empty_identity =
  QCheck.Test.make ~count:200 ~name:"merge with empty is identity"
    QCheck.(small_list (int_bound 2_000_000))
    (fun vs ->
      let a = H.create "a" and b = H.create "b" in
      List.iter
        (fun v ->
          add_i a v;
          add_i b v)
        vs;
      H.merge ~into:a (H.create "empty-src");
      let into_empty = H.create "empty-dst" in
      H.merge ~into:into_empty b;
      let same x y =
        H.count x = H.count y
        && (vs = []
           || H.mean x = H.mean y
              && span_i64 (H.max x) = span_i64 (H.max y)
              && List.for_all (fun p -> pct_i x p = pct_i y p) probe_ps)
      in
      same a b && same into_empty b)

(* One sample: every percentile in [0,1] is that sample (negatives
   recorded as 0), because the quantile's bucket upper bound clamps to
   the exact observed max. *)
let prop_single_sample_percentiles =
  QCheck.Test.make ~count:500 ~name:"single-sample percentile edges"
    QCheck.(pair (int_range (-5) 3_000_000) (float_bound_inclusive 1.0))
    (fun (v, p) ->
      let h = H.create "one" in
      add_i h v;
      let clamped = if v < 0 then 0 else v in
      H.count h = 1
      && Int64.to_int (span_i64 (H.min h)) = clamped
      && Int64.to_int (span_i64 (H.max h)) = clamped
      && pct_i h p = clamped
      && pct_i h 0. = clamped
      && pct_i h 1. = clamped)

let () =
  Alcotest.run "histogram"
    [
      ( "buckets",
        [
          Alcotest.test_case "exact below 64" `Quick test_exact_region;
          Alcotest.test_case "power-of-two boundaries" `Quick
            test_bucket_boundaries;
          Alcotest.test_case "negative clamps to 0" `Quick
            test_negative_clamps;
          Alcotest.test_case "clamped to observed max" `Quick test_max_clamp;
        ] );
      ( "quantiles",
        [
          Alcotest.test_case "monotone in p" `Quick test_quantile_monotone;
          Alcotest.test_case "merge is exact" `Quick test_merge_exact;
          Alcotest.test_case "empty/raises" `Quick test_empty_and_raises;
        ] );
      ( "properties",
        [ qt prop_merge_empty_identity; qt prop_single_sample_percentiles ] );
    ]
