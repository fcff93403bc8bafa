(* Host probe, run at every set-up: the machine the numbers describe.

   Single-domain rate of a 256³ GEMM through [Einsum.contract2], and the
   aggregate rate of the same GEMM on two domains at once — the
   denominator of [kernel.peak_fraction] and the context every other
   number needs on a small shared host. *)

open Tce

type t = {
  cores : int;
  gflops_1d : float;  (** single-domain GEMM rate, GFLOP/s *)
  scaling_2d : float;  (** two-domain aggregate rate over the single-domain rate *)
}

let n = 256
let reps = 7

let gemm_operands () =
  let i = Index.v "i" and j = Index.v "j" and k = Index.v "k" in
  let rng = Prng.create ~seed:256 in
  let a = Dense.create [ (i, n); (k, n) ] and b = Dense.create [ (k, n); (j, n) ] in
  Dense.fill_random a rng;
  Dense.fill_random b rng;
  (a, b, [ i; j ])

(* Best wall seconds of one GEMM over [reps] runs: a peak rate, so the
   fastest run is the one least disturbed by the rest of the machine. *)
let time_gemms (a, b, out) =
  ignore (Einsum.contract2 ~out a b : Dense.t);
  List.fold_left Float.min infinity
    (List.init reps (fun _ ->
         let t0 = Unix.gettimeofday () in
         ignore (Einsum.contract2 ~out a b : Dense.t);
         Unix.gettimeofday () -. t0))

let flops = 2. *. float_of_int (n * n * n)

let probe () =
  let operands = gemm_operands () in
  let single = time_gemms operands in
  (* Both domains run the same GEMM series; the aggregate rate is the
     flops of both over the wall time of the slower. *)
  let other = Domain.spawn (fun () -> time_gemms (gemm_operands ())) in
  let mine = time_gemms operands in
  let theirs = Domain.join other in
  let pair = Float.max mine theirs in
  {
    cores = Domain.recommended_domain_count ();
    gflops_1d = flops /. single /. 1e9;
    scaling_2d = 2. *. single /. pair;
  }

let pp ppf h =
  Format.fprintf ppf
    "host: %d cores; 256^3 GEMM %.3f GFLOP/s on one domain, two-domain \
     scaling %.2fx"
    h.cores h.gflops_1d h.scaling_2d
