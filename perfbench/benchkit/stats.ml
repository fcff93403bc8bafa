(* Order statistics over timing samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

(* Nearest-rank percentile: the smallest sample such that at least [p]%
   of the samples are at or below it. *)
let percentile xs p =
  if xs = [] then invalid_arg "Stats.percentile: no samples";
  if p < 0. || p > 100. then invalid_arg "Stats.percentile: p outside [0, 100]";
  let a = sorted xs in
  let n = Array.length a in
  let rank = int_of_float (Float.ceil (p /. 100. *. float_of_int n)) in
  a.(max 0 (min (n - 1) (rank - 1)))

let median xs =
  if xs = [] then invalid_arg "Stats.median: no samples";
  let a = sorted xs in
  let n = Array.length a in
  if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

(* Samples strictly beyond the nearest-rank [p]-th percentile of [n]. *)
let beyond ~n p = n - int_of_float (Float.ceil (p /. 100. *. float_of_int n))

(* The highest of the usual tail percentiles that still has at least ten
   samples beyond it, so a reported tail is never one or two outliers. *)
let tail_percentile ~n =
  List.fold_left
    (fun acc p -> if beyond ~n p >= 10 then Some p else acc)
    None [ 90.; 95.; 99.; 99.9 ]
