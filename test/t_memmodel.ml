(* Tests for the paper's size/cost equations (section 3.2) and memory
   accounting — checked against numbers printed in the paper itself. *)

open Tce
open Helpers

let paper_ext =
  extents
    [ ("a", 480); ("b", 480); ("c", 480); ("d", 480); ("e", 64); ("f", 64);
      ("i", 32); ("j", 32); ("k", 32); ("l", 32) ]

let no_fusion = Index.Set.empty
let fuse_f = Index.set_of_list [ i "f" ]

let test_dist_range () =
  let alpha = Dist.pair (i "d") (i "b") in
  (* fused -> 1; distributed -> N/sqrt(P); otherwise N. *)
  Alcotest.(check int) "fused" 1
    (Eqs.dist_range_rect paper_ext ~rows:4 ~cols:4 ~alpha ~fused:fuse_f
       (i "f"));
  Alcotest.(check int) "distributed" 120
    (Eqs.dist_range_rect paper_ext ~rows:4 ~cols:4 ~alpha ~fused:fuse_f
       (i "b"));
  Alcotest.(check int) "full" 480
    (Eqs.dist_range_rect paper_ext ~rows:4 ~cols:4 ~alpha ~fused:fuse_f
       (i "c"))

(* Paper section 3.2's worked example: B = T1(b,c,d,f) with distribution
   <b,f> and fusion {c} on 16 processors is 921,600 words per processor. *)
let test_paper_worked_example () =
  let alpha = Dist.pair (i "b") (i "f") in
  let fused = Index.set_of_list [ i "c" ] in
  Alcotest.(check int) "921600 words" 921_600
    (Eqs.dist_size_rect paper_ext ~rows:4 ~cols:4 ~alpha ~fused
       ~dims:(idx_list [ "b"; "c"; "d"; "f" ]))

(* Table 2's stored sizes (per processor = per node / 2). *)
let test_table2_sizes () =
  let t1 =
    Eqs.dist_size_rect paper_ext ~rows:4 ~cols:4
      ~alpha:(Dist.pair (i "d") (i "b"))
      ~fused:fuse_f
      ~dims:(idx_list [ "b"; "c"; "d"; "f" ])
  in
  Alcotest.(check int) "T1(b,c,d) block" 6_912_000 t1;
  check_close ~ctx:"108.0 MB/node" 108.0
    (Units.paper_mb_of_words (2 * t1));
  let b_msg =
    Eqs.dist_size_rect paper_ext ~rows:4 ~cols:4
      ~alpha:(Dist.pair (i "e") (i "b"))
      ~fused:fuse_f
      ~dims:(idx_list [ "b"; "e"; "f"; "l" ])
  in
  Alcotest.(check int) "B slice" 61_440 b_msg;
  let a_blk =
    Eqs.dist_size_rect paper_ext ~rows:4 ~cols:4
      ~alpha:(Dist.pair (i "a") (i "k"))
      ~fused:no_fusion
      ~dims:(idx_list [ "a"; "c"; "i"; "k" ])
  in
  check_close ~ctx:"A 230.4 MB/node" 230.4 (Units.paper_mb_of_words (2 * a_blk))

let test_msg_factor () =
  (* Fused f, undistributed: communicated N_f = 64 times. *)
  Alcotest.(check int) "N_f" 64
    (Eqs.msg_factor_rect paper_ext ~rows:4 ~cols:4
       ~alpha:(Dist.pair (i "d") (i "b"))
       ~fused:fuse_f
       ~dims:(idx_list [ "b"; "c"; "d"; "f" ]));
  (* Fused f, f distributed: N_f / sqrt(P) times. *)
  Alcotest.(check int) "N_f/sqrtP" 16
    (Eqs.msg_factor_rect paper_ext ~rows:4 ~cols:4
       ~alpha:(Dist.pair (i "f") (i "b"))
       ~fused:fuse_f
       ~dims:(idx_list [ "b"; "c"; "d"; "f" ]));
  (* No fusion: rotated exactly once. *)
  Alcotest.(check int) "once" 1
    (Eqs.msg_factor_rect paper_ext ~rows:4 ~cols:4
       ~alpha:(Dist.pair (i "d") (i "b"))
       ~fused:no_fusion
       ~dims:(idx_list [ "b"; "c"; "d"; "f" ]))

(* Rotate costs against the paper's Table 2 entries. *)
let test_rotate_cost_table2 () =
  let rcost = Rcost.of_params params ~side:4 in
  let b_cost =
    Eqs.rotate_cost_rect ~rcost paper_ext
      ~alpha:(Dist.pair (i "e") (i "b"))
      ~fused:fuse_f
      ~dims:(idx_list [ "b"; "e"; "f"; "l" ])
      ~axis:1
  in
  check_close ~ctx:"B: 25.7 s" ~rel:0.01 25.7 b_cost;
  let c_cost =
    Eqs.rotate_cost_rect ~rcost paper_ext
      ~alpha:(Dist.pair (i "k") (i "d"))
      ~fused:fuse_f
      ~dims:(idx_list [ "d"; "f"; "j"; "k" ])
      ~axis:2
  in
  check_close ~ctx:"C: 20.8 s" ~rel:0.01 20.8 c_cost;
  let t1_cost =
    Eqs.rotate_cost_rect ~rcost paper_ext
      ~alpha:(Dist.pair (i "d") (i "b"))
      ~fused:fuse_f
      ~dims:(idx_list [ "b"; "c"; "d"; "f" ])
      ~axis:1
  in
  check_close ~ctx:"T1: ~895 s" ~rel:0.02 895.0 t1_cost

let test_ceil_division_overestimates () =
  let e = extents [ ("x", 5); ("y", 7) ] in
  (* 5/2 -> 3, 7/2 -> 4: the memory model rounds up. *)
  Alcotest.(check int) "ceil sizes" 12
    (Eqs.dist_size_rect e ~rows:2 ~cols:2
       ~alpha:(Dist.pair (i "x") (i "y"))
       ~fused:no_fusion ~dims:(idx_list [ "x"; "y" ]))

let test_full_words () =
  Alcotest.(check int) "T1 full" (480 * 480 * 480 * 64)
    (Eqs.full_words paper_ext ~dims:(idx_list [ "b"; "c"; "d"; "f" ]))

(* The mask forms against the set forms, bit for bit, on seeded draws:
   an array of one to seven dimensions (extents 1–40, so the ceiling
   divisions round), one of its distributions, an axis, an R × C grid of
   up to 5 × 5 with its characterization, a fusion universe drawn from a
   wider pool (so some dimensions are never fused and some fused indices
   are no dimension), and a subset of that universe as the fusion. The
   rotation cost is MsgFactor times a positive query of DistSize, so with
   DistSize equal it checks MsgFactor too. *)
let test_masked_matches_sets () =
  let rng = Prng.create ~seed:2027 in
  let pool = idx_list [ "a"; "b"; "c"; "d"; "e"; "f"; "g"; "h"; "p"; "q" ] in
  let ext =
    Extents.of_list_exn
      (List.map (fun x -> (x, 1 + Prng.int rng ~bound:40)) pool)
  in
  let rcost rows cols =
    Rcost.characterize_rect ~rows ~cols ~samples:Rcost.default_samples
      ~measure:(fun ~axis ~words ->
        float_of_int (axis * (rows + cols))
        *. (3e-5 +. (7e-9 *. float_of_int words)))
  in
  let rcosts =
    Array.init 5 (fun r -> Array.init 5 (fun c -> rcost (r + 1) (c + 1)))
  in
  for draw = 1 to 2000 do
    let rows = 1 + Prng.int rng ~bound:5 in
    let cols = 1 + Prng.int rng ~bound:5 in
    let rcost = rcosts.(rows - 1).(cols - 1) in
    let rank = 1 + Prng.int rng ~bound:7 in
    let dims = List.filteri (fun k _ -> k < rank) (Prng.shuffle rng pool) in
    let alpha = Prng.pick rng (Dist.enumerate dims ()) in
    let axis = 1 + Prng.int rng ~bound:2 in
    let universe =
      List.filter (fun _ -> Prng.bool rng) (Prng.shuffle rng pool)
    in
    let fused = List.filter (fun _ -> Prng.bool rng) universe in
    let mask =
      List.fold_left
        (fun (m, bit) u ->
          ((if List.mem u fused then m lor bit else m), bit lsl 1))
        (0, 1) universe
      |> fst
    in
    let fused = Index.set_of_list fused in
    let m = Eqs.masked ext ~rows ~cols ~alpha ~universe ~dims in
    let ctx what = Printf.sprintf "draw %d: %s" draw what in
    Alcotest.(check int) (ctx "DistSize")
      (Eqs.dist_size_rect ext ~rows ~cols ~alpha ~fused ~dims)
      (Eqs.masked_size m mask);
    Alcotest.(check int64) (ctx "RotateCost bits")
      (Int64.bits_of_float
         (Eqs.rotate_cost_rect ~rcost ext ~alpha ~fused ~dims ~axis))
      (Int64.bits_of_float (Eqs.masked_rotate_cost ~rcost m ~axis mask))
  done

(* ---------------- Memacct ---------------- *)

let test_memacct_arithmetic () =
  let m = Memacct.empty in
  let m = Memacct.add_resident m 1000 in
  let m = Memacct.add_resident m 500 in
  let m = Memacct.add_message m 300 in
  let m = Memacct.add_message m 200 in
  Alcotest.(check int) "resident" 1500 m.Memacct.resident_words;
  Alcotest.(check int) "buffer is max" 300 m.Memacct.buffer_words;
  let m2 = Memacct.add_resident (Memacct.add_message Memacct.empty 900) 100 in
  let merged = Memacct.merge m m2 in
  Alcotest.(check int) "merged resident" 1600 merged.Memacct.resident_words;
  Alcotest.(check int) "merged buffer" 900 merged.Memacct.buffer_words

let test_memacct_node_bytes () =
  let m = Memacct.add_message (Memacct.add_resident Memacct.empty 1000) 200 in
  (* 2 procs/node * 8 bytes * 1200 words. *)
  check_close ~ctx:"bytes" 19200.0 (Memacct.node_bytes params m);
  Alcotest.(check bool) "fits" true (Memacct.fits params m)

(* The paper's 64-proc total: ~65.3 GB across all arrays -> ~2.04 GB/node
   plus a 115.2 MB buffer, within the 4 GB limit. *)
let test_table1_memory_total () =
  let arrays =
    [
      idx_list [ "a"; "c"; "i"; "k" ]; idx_list [ "b"; "e"; "f"; "l" ];
      idx_list [ "d"; "f"; "j"; "k" ]; idx_list [ "c"; "d"; "e"; "l" ];
      idx_list [ "b"; "c"; "d"; "f" ]; idx_list [ "b"; "c"; "j"; "k" ];
      idx_list [ "a"; "b"; "i"; "j" ];
    ]
  in
  let total_words =
    Ints.sum (List.map (fun dims -> Extents.size_of paper_ext dims) arrays)
  in
  check_close ~ctx:"65.3 GB total" ~rel:0.01 65.3
    (Units.bytes_of_words total_words /. 1.024e9);
  let per_proc = total_words / 64 in
  let m =
    Memacct.add_message
      (Memacct.add_resident Memacct.empty per_proc)
      (480 * 480 * 64 * 32 / 64)
  in
  Alcotest.(check bool) "fits in 4 GB/node" true (Memacct.fits params m)

let suite =
  [
    ( "memmodel.eqs",
      [
        case "DistRange cases" test_dist_range;
        case "paper's 921600-word example" test_paper_worked_example;
        case "Table 2 stored sizes" test_table2_sizes;
        case "MsgFactor cases" test_msg_factor;
        case "RotateCost matches Table 2" test_rotate_cost_table2;
        case "ceiling division overestimates" test_ceil_division_overestimates;
        case "full array sizes" test_full_words;
        case "mask forms equal the set forms bitwise" test_masked_matches_sets;
      ] );
    ( "memmodel.memacct",
      [
        case "accumulation and merge" test_memacct_arithmetic;
        case "per-node bytes" test_memacct_node_bytes;
        case "Table 1 memory totals" test_table1_memory_total;
      ] );
  ]
