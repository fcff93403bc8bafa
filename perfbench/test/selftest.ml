(* Self-tests for the benchmark's own arithmetic, on synthetic data:
   percentiles and their sample counts, and span self time with nested
   and overlapping children. The quartile spread is checked by
   perfbench/spread.py --selftest, which computes it. *)

open Benchkit

let failures = ref 0

let check name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) < 1e-9

let floats lo hi = List.init (hi - lo + 1) (fun k -> float_of_int (lo + k))

let test_percentiles () =
  let xs = floats 1 100 in
  check "p90 of 1..100" (close (Stats.percentile xs 90.) 90.);
  check "p100 is the max" (close (Stats.percentile xs 100.) 100.);
  check "p0 is the min" (close (Stats.percentile xs 0.) 1.);
  check "nearest rank, unsorted input" (close (Stats.percentile [ 5.; 1.; 3. ] 50.) 3.);
  check "odd median" (close (Stats.median [ 3.; 1.; 2. ]) 2.);
  check "even median" (close (Stats.median [ 4.; 1.; 3.; 2. ]) 2.5);
  check "10 beyond p90 of 100" (Stats.beyond ~n:100 90. = 10);
  check "tail of 100 is p90" (Stats.tail_percentile ~n:100 = Some 90.);
  check "tail of 200 is p95" (Stats.tail_percentile ~n:200 = Some 95.);
  check "tail of 1000 is p99" (Stats.tail_percentile ~n:1000 = Some 99.);
  check "no tail under 100" (Stats.tail_percentile ~n:99 = None)

let span ?(tid = 0) name t0 t1 = { Spans.name; tid; t0; t1 }

let self_of spans name =
  fst (Option.value ~default:(nan, 0) (Hashtbl.find_opt (Spans.self_by_name spans) name))

let test_self_time () =
  let nested =
    [ span "parent" 0. 100.; span "child" 10. 30.; span "grandchild" 15. 20. ]
  in
  check "nested: parent" (close (self_of nested "parent") 80.);
  check "nested: child" (close (self_of nested "child") 15.);
  check "nested: leaf" (close (self_of nested "grandchild") 5.);
  (* Two children that overlap each other cover their union, once. *)
  let overlapping = [ span "parent" 0. 100.; span "a" 10. 40.; span "b" 30. 60. ] in
  check "overlapping: parent" (close (self_of overlapping "parent") 50.);
  check "overlapping: a" (close (self_of overlapping "a") 30.);
  check "overlapping: b" (close (self_of overlapping "b") 30.);
  (* A span on another track is not a child. *)
  let tracks = [ span "parent" 0. 100.; span ~tid:1 "other" 10. 50. ] in
  check "other track" (close (self_of tracks "parent") 100.);
  (* A child overshooting its parent's end by rounding is still a child,
     clipped to the parent. *)
  let rounding = [ span "parent" 0. 100.; span "child" 50. 100.005 ] in
  check "rounding overshoot" (close (self_of rounding "parent") 50.);
  (* Repeated names add up; the count is per span. *)
  let repeated =
    [ span "op" 0. 10.; span "leaf" 2. 4.; span "op" 20. 30.; span "leaf" 21. 22. ]
  in
  let tbl = Spans.self_by_name repeated in
  check "repeated: total" (close (fst (Hashtbl.find tbl "op")) 17.);
  check "repeated: count" (snd (Hashtbl.find tbl "op") = 2)

let () =
  test_percentiles ();
  test_self_time ();
  if !failures > 0 then begin
    Printf.printf "%d benchmark self-test(s) failed\n" !failures;
    exit 1
  end
