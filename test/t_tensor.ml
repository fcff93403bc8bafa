(* Tests for dense labeled tensors and the reference einsum engine. *)

open Tce
open Helpers
module G = QCheck2.Gen

let coord bindings =
  List.fold_left
    (fun m (n, v) -> Index.Map.add (i n) v m)
    Index.Map.empty bindings

let test_create_get_set () =
  let t = Dense.create [ (i "a", 2); (i "b", 3) ] in
  Alcotest.(check int) "size" 6 (Dense.size t);
  Alcotest.(check int) "rank" 2 (Dense.rank t);
  check_float "zero init" 0.0 (Dense.get t (coord [ ("a", 1); ("b", 2) ]));
  Dense.set t (coord [ ("a", 1); ("b", 2) ]) 5.0;
  check_float "after set" 5.0 (Dense.get t (coord [ ("a", 1); ("b", 2) ]));
  Dense.add_at t (coord [ ("a", 1); ("b", 2) ]) 2.5;
  check_float "after add" 7.5 (Dense.get t (coord [ ("a", 1); ("b", 2) ]))

let test_create_errors () =
  (match Dense.create [ (i "a", 2); (i "a", 3) ] with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "duplicate labels accepted");
  match Dense.create [ (i "a", 0) ] with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "zero extent accepted"

let test_coordinate_errors () =
  let t = Dense.create [ (i "a", 2) ] in
  (match Dense.get t (coord [ ("a", 2) ]) with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "out of range accepted");
  (match Dense.get t (coord [ ("b", 0) ]) with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "wrong label accepted");
  match Dense.get t (coord [ ("a", 0); ("b", 0) ]) with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "extra label accepted"

let test_scalar () =
  let s = Dense.scalar 3.5 in
  Alcotest.(check int) "rank 0" 0 (Dense.rank s);
  check_float "value" 3.5 (Dense.get_value s)

let test_init_iteri () =
  let t =
    Dense.init [ (i "a", 3); (i "b", 2) ] ~f:(fun m ->
        float_of_int ((10 * Index.Map.find (i "a") m) + Index.Map.find (i "b") m))
  in
  check_float "init" 21.0 (Dense.get t (coord [ ("a", 2); ("b", 1) ]));
  let count = ref 0 in
  Dense.iteri t ~f:(fun m v ->
      incr count;
      check_float "roundtrip"
        (float_of_int
           ((10 * Index.Map.find (i "a") m) + Index.Map.find (i "b") m))
        v);
  Alcotest.(check int) "visited all" 6 !count

let test_transpose () =
  let t =
    Dense.init [ (i "a", 3); (i "b", 4) ] ~f:(fun m ->
        float_of_int ((10 * Index.Map.find (i "a") m) + Index.Map.find (i "b") m))
  in
  let tt = Dense.transpose t (idx_list [ "b"; "a" ]) in
  Alcotest.(check (list string)) "labels"
    [ "b"; "a" ]
    (List.map Index.name (Dense.labels tt));
  check_float "value preserved" 21.0 (Dense.get tt (coord [ ("a", 2); ("b", 1) ]));
  check_float "norm preserved" (Dense.frobenius t) (Dense.frobenius tt);
  let back = Dense.transpose tt (idx_list [ "a"; "b" ]) in
  Alcotest.(check bool) "roundtrip" true (Dense.equal_approx t back)

let test_slice () =
  let t =
    Dense.init [ (i "a", 3); (i "b", 4) ] ~f:(fun m ->
        float_of_int ((10 * Index.Map.find (i "a") m) + Index.Map.find (i "b") m))
  in
  let s = Dense.slice t (i "a") 2 in
  Alcotest.(check int) "rank" 1 (Dense.rank s);
  check_float "content" 23.0 (Dense.get s (coord [ ("b", 3) ]))

let test_block_roundtrip () =
  let t =
    Dense.init [ (i "a", 6); (i "b", 4) ] ~f:(fun m ->
        float_of_int ((10 * Index.Map.find (i "a") m) + Index.Map.find (i "b") m))
  in
  let blk = Dense.block t [ (i "a", (2, 3)); (i "b", (1, 2)) ] in
  Alcotest.(check int) "block size" 6 (Dense.size blk);
  check_float "block content" 31.0 (Dense.get blk (coord [ ("a", 1); ("b", 0) ]));
  let dst = Dense.create (Dense.dims t) in
  (* Reassemble the full tensor from its four quadrant blocks. *)
  List.iter
    (fun (oa, la) ->
      List.iter
        (fun (ob, lb) ->
          let b = Dense.block t [ (i "a", (oa, la)); (i "b", (ob, lb)) ] in
          Dense.set_block dst [ (i "a", oa); (i "b", ob) ] b)
        [ (0, 1); (1, 3) ])
    [ (0, 2); (2, 4) ];
  Alcotest.(check bool) "reassembled" true (Dense.equal_approx t dst)

let test_add_block () =
  let t = Dense.create [ (i "a", 2) ] in
  let blk = Dense.init [ (i "a", 2) ] ~f:(fun _ -> 1.0) in
  Dense.add_block t [] blk;
  Dense.add_block t [] blk;
  check_float "accumulated" 2.0 (Dense.get t (coord [ ("a", 0) ]))

let test_equal_approx_orders () =
  let t = Dense.init [ (i "a", 2); (i "b", 2) ] ~f:(fun m ->
      float_of_int (Index.Map.find (i "a") m)) in
  let u = Dense.transpose t (idx_list [ "b"; "a" ]) in
  Alcotest.(check bool) "order-insensitive" true (Dense.equal_approx t u);
  Dense.set u (coord [ ("a", 0); ("b", 0) ]) 99.0;
  Alcotest.(check bool) "detects difference" false (Dense.equal_approx t u)

let test_map2_shape_check () =
  let a = Dense.create [ (i "a", 2) ] and b = Dense.create [ (i "b", 2) ] in
  match Dense.map2 a b ~f:( +. ) with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "shape mismatch accepted"

(* ---------------- Einsum ---------------- *)

let test_matmul () =
  (* C(i,j) = sum_k A(i,k) B(k,j) against a hand computation. *)
  let a =
    Dense.init [ (i "i", 2); (i "k", 2) ] ~f:(fun m ->
        float_of_int ((2 * Index.Map.find (i "i") m) + Index.Map.find (i "k") m + 1))
  in
  let b =
    Dense.init [ (i "k", 2); (i "j", 2) ] ~f:(fun m ->
        float_of_int ((2 * Index.Map.find (i "k") m) + Index.Map.find (i "j") m + 5))
  in
  (* a = [[1 2];[3 4]], b = [[5 6];[7 8]]  =>  c = [[19 22];[43 50]] *)
  let c = Einsum.contract2 ~out:(idx_list [ "i"; "j" ]) a b in
  check_float "c00" 19.0 (Dense.get c (coord [ ("i", 0); ("j", 0) ]));
  check_float "c01" 22.0 (Dense.get c (coord [ ("i", 0); ("j", 1) ]));
  check_float "c10" 43.0 (Dense.get c (coord [ ("i", 1); ("j", 0) ]));
  check_float "c11" 50.0 (Dense.get c (coord [ ("i", 1); ("j", 1) ]))

let test_hadamard_and_outer () =
  let rng = Prng.create ~seed:1 in
  let a = Dense.create [ (i "x", 3) ] and b = Dense.create [ (i "x", 3) ] in
  Dense.fill_random a rng;
  Dense.fill_random b rng;
  let h = Einsum.contract2 ~out:[ i "x" ] a b in
  Dense.iteri h ~f:(fun m v -> check_float "hadamard" (Dense.get a m *. Dense.get b m) v);
  let o = Einsum.contract2 ~out:(idx_list [ "x"; "y" ]) a
      (Dense.transpose (Dense.init [ (i "y", 2) ] ~f:(fun m -> float_of_int (Index.Map.find (i "y") m))) [ i "y" ])
  in
  Alcotest.(check int) "outer size" 6 (Dense.size o)

let test_dot_product_rejected () =
  (* A fully-contracted product has a rank-0 output: supported. *)
  let a = Dense.init [ (i "x", 3) ] ~f:(fun m -> float_of_int (Index.Map.find (i "x") m)) in
  let d = Einsum.contract2 ~out:[] a a in
  check_float "dot" 5.0 (Dense.get_value d)

let test_sum_over () =
  let t =
    Dense.init [ (i "a", 2); (i "b", 3) ] ~f:(fun m ->
        float_of_int ((10 * Index.Map.find (i "a") m) + Index.Map.find (i "b") m))
  in
  let s = Dense.transpose (Einsum.sum_over t [ i "b" ]) [ i "a" ] in
  check_float "row 0" 3.0 (Dense.get s (coord [ ("a", 0) ]));
  check_float "row 1" 33.0 (Dense.get s (coord [ ("a", 1) ]));
  let all = Einsum.sum_over t (idx_list [ "a"; "b" ]) in
  check_float "total" 36.0 (Dense.get_value all)

let test_einsum_errors () =
  let a = Dense.create [ (i "x", 3) ] and b = Dense.create [ (i "x", 4) ] in
  (match Einsum.contract2 ~out:[ i "x" ] a b with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "extent mismatch accepted");
  match Einsum.contract2 ~out:[ i "z" ] a a with
  | exception Tce_error.Error _ -> ()
  | _ -> Alcotest.fail "foreign output label accepted"

let test_flops_count () =
  let a = Dense.create [ (i "i", 3); (i "k", 4) ] in
  let b = Dense.create [ (i "k", 4); (i "j", 5) ] in
  Alcotest.(check int) "2*i*j*k" (2 * 3 * 4 * 5)
    (Einsum.flops_contract2 ~out:(idx_list [ "i"; "j" ]) a b)

(* Property: contract2 equals an independent 3-loop evaluation on random
   matrix triples. *)
let qcheck_matmul =
  qtest ~count:50 "contract2 = naive matmul"
    G.(tup3 (int_range 1 5) (int_range 1 5) (int_range 1 5))
    (fun (ni, nj, nk) ->
      let rng = Prng.create ~seed:(ni + (10 * nj) + (100 * nk)) in
      let a = Dense.create [ (i "i", ni); (i "k", nk) ] in
      let b = Dense.create [ (i "k", nk); (i "j", nj) ] in
      Dense.fill_random a rng;
      Dense.fill_random b rng;
      let c = Einsum.contract2 ~out:(idx_list [ "i"; "j" ]) a b in
      let ok = ref true in
      for ii = 0 to ni - 1 do
        for jj = 0 to nj - 1 do
          let acc = ref 0.0 in
          for kk = 0 to nk - 1 do
            acc :=
              !acc
              +. Dense.get a (coord [ ("i", ii); ("k", kk) ])
                 *. Dense.get b (coord [ ("k", kk); ("j", jj) ])
          done;
          let got = Dense.get c (coord [ ("i", ii); ("j", jj) ]) in
          if Float.abs (!acc -. got) > 1e-9 *. (1.0 +. Float.abs !acc) then
            ok := false
        done
      done;
      !ok)

let qcheck_contract_commutes =
  qtest ~count:50 "contract2 is commutative"
    G.(tup2 (int_range 1 4) (int_range 1 4))
    (fun (n1, n2) ->
      let rng = Prng.create ~seed:(n1 + (7 * n2)) in
      let a = Dense.create [ (i "p", n1); (i "q", n2) ] in
      let b = Dense.create [ (i "q", n2); (i "r", n1) ] in
      Dense.fill_random a rng;
      Dense.fill_random b rng;
      let ab = Einsum.contract2 ~out:(idx_list [ "p"; "r" ]) a b in
      let ba = Einsum.contract2 ~out:(idx_list [ "p"; "r" ]) b a in
      Dense.equal_approx ab ba)

let test_add_and_scale () =
  let a = Dense.init [ (i "x", 3) ] ~f:(fun m -> float_of_int (Index.Map.find (i "x") m)) in
  let s = Einsum.scale 2.0 a in
  check_float "scale" 4.0 (Dense.get s (coord [ ("x", 2) ]));
  let sum = Einsum.add a s in
  check_float "add" 6.0 (Dense.get sum (coord [ ("x", 2) ]))

(* ---------------- Kernel ---------------- *)

(* Random contraction instances: each label draws a membership role
   (sum in A / in B / in both; output from A / from B / batch) and an
   extent in 1..4 — so extent-1 dimensions, empty summation sets,
   scalar operands and Hadamard dimensions all occur — and every storage
   order is shuffled. The blocked kernel must agree with the frozen seed
   reference on all of them. *)
let qcheck_kernel_vs_ref =
  qtest ~count:150 "kernel = frozen reference on random contractions"
    G.(
      tup2
        (list_size (int_range 1 6) (tup2 (int_range 0 5) (int_range 1 4)))
        (int_range 0 1_000_000))
    (fun (spec, seed) ->
      let rng = Prng.create ~seed in
      let labeled =
        List.mapi
          (fun k (role, ext) -> (i (Printf.sprintf "x%d" k), role, ext))
          spec
      in
      (* roles: 0 sum in A; 1 sum in B; 2 sum in both;
         3 out from A; 4 out from B; 5 out from both (batch) *)
      let dims_of roles =
        List.filter_map
          (fun (l, r, e) -> if List.mem r roles then Some (l, e) else None)
          labeled
      in
      let a_dims = Prng.shuffle rng (dims_of [ 0; 2; 3; 5 ]) in
      let b_dims = Prng.shuffle rng (dims_of [ 1; 2; 4; 5 ]) in
      let out = Prng.shuffle rng (List.map fst (dims_of [ 3; 4; 5 ])) in
      let a = Dense.create a_dims and b = Dense.create b_dims in
      Dense.fill_random a rng;
      Dense.fill_random b rng;
      let fast = Einsum.contract2 ~out a b in
      let slow = Einsum.contract2_ref ~out a b in
      Dense.equal_approx fast slow)

let qcheck_acc_equivalence =
  qtest ~count:50 "contract2_acc = contract2 + add"
    G.(int_range 0 1_000_000)
    (fun seed ->
      let rng = Prng.create ~seed in
      let a = Dense.create [ (i "p", 3); (i "k", 4); (i "s", 2) ] in
      let b = Dense.create [ (i "k", 4); (i "q", 5) ] in
      let into = Dense.create [ (i "p", 3); (i "q", 5); (i "s", 2) ] in
      Dense.fill_random a rng;
      Dense.fill_random b rng;
      Dense.fill_random into rng;
      let base = Dense.copy into in
      Einsum.contract2_acc ~into a b;
      let expect =
        Einsum.add base (Einsum.contract2_ref ~out:(Dense.labels into) a b)
      in
      Dense.equal_approx into expect)

(* The CCSD-shaped contraction T1[b,c,d,f] = Σ_{e,l} B[b,e,f,l]·D[c,d,e,l]
   must canonicalize onto the GEMM microkernel (this is the layout the
   benchmark's >=10x speedup claim rests on). *)
let test_ccsd_hits_microkernel () =
  let rng = Prng.create ~seed:42 in
  let bt = Dense.create [ (i "b", 4); (i "e", 3); (i "f", 4); (i "l", 3) ] in
  let dt = Dense.create [ (i "c", 4); (i "d", 4); (i "e", 3); (i "l", 3) ] in
  Dense.fill_random bt rng;
  Dense.fill_random dt rng;
  let out = idx_list [ "b"; "c"; "d"; "f" ] in
  let c = Einsum.contract2 ~out bt dt in
  Alcotest.(check bool) "GEMM path" true (Kernel.last_path () = Kernel.Gemm);
  Alcotest.(check bool) "matches reference" true
    (Dense.equal_approx c (Einsum.contract2_ref ~out bt dt))

(* An innermost output dimension present in both operands defeats the
   canonical (M, N, K) form; the kernel must take the stride walk and be
   exact. *)
let test_noncoalescible_walks () =
  let rng = Prng.create ~seed:43 in
  let a = Dense.create [ (i "m", 3); (i "k", 4); (i "x", 5) ] in
  let b = Dense.create [ (i "k", 4); (i "x", 5) ] in
  Dense.fill_random a rng;
  Dense.fill_random b rng;
  let out = idx_list [ "m"; "x" ] in
  let c = Einsum.contract2 ~out a b in
  Alcotest.(check bool) "walk path" true (Kernel.last_path () = Kernel.Walk);
  Alcotest.(check bool) "matches reference" true
    (Dense.equal_approx c (Einsum.contract2_ref ~out a b))

(* Path probes across the classification: GEMM for matmul shapes, the
   walk for full reductions and under the oracle. *)
let test_kernel_paths () =
  let rng = Prng.create ~seed:45 in
  let a = Dense.create [ (i "m", 6); (i "k", 5) ] in
  let b = Dense.create [ (i "k", 5); (i "n", 7) ] in
  Dense.fill_random a rng;
  Dense.fill_random b rng;
  ignore (Einsum.contract2 ~out:(idx_list [ "m"; "n" ]) a b);
  Alcotest.(check bool) "gemm" true (Kernel.last_path () = Kernel.Gemm);
  ignore (Einsum.contract2 ~out:[] a (Dense.transpose a [ i "m"; i "k" ]));
  Alcotest.(check bool) "full reduction walks" true
    (Kernel.last_path () = Kernel.Walk);
  Kernel.set_walk_oracle true;
  Fun.protect
    ~finally:(fun () -> Kernel.set_walk_oracle false)
    (fun () ->
      let c = Einsum.contract2 ~out:(idx_list [ "m"; "n" ]) a b in
      Alcotest.(check bool) "oracle walks" true
        (Kernel.last_path () = Kernel.Walk);
      Alcotest.(check bool) "oracle exact" true
        (Dense.equal_approx c
           (Einsum.contract2_ref ~out:(idx_list [ "m"; "n" ]) a b)));
  let kc, mc, nc = Kernel.blocking () in
  Alcotest.(check bool) "blocking sane" true (kc > 0 && mc > 1 && nc > 3)

(* The safe flat view: [to_floats] is a detached copy and [bits_equal]
   is exact. *)
let test_dense_safe_view () =
  let rng = Prng.create ~seed:46 in
  let a = Dense.create [ (i "p", 3); (i "q", 4) ] in
  Dense.fill_random a rng;
  let snap = Dense.to_floats a in
  Alcotest.(check (float 0.0)) "row-major copy" snap.(5)
    (Dense.get a (Index.Map.of_seq
                    (List.to_seq [ (i "p", 1); (i "q", 1) ])));
  let b = Dense.copy a in
  Alcotest.(check bool) "copy bits-equal" true (Dense.bits_equal a b);
  snap.(0) <- snap.(0) +. 1.0;
  Alcotest.(check bool) "to_floats detached" true (Dense.bits_equal a b);
  Dense.unsafe_set b 0 (Float.succ (Dense.unsafe_get b 0));
  Alcotest.(check bool) "bit flip detected" false (Dense.bits_equal a b);
  let c = Dense.transpose a [ i "q"; i "p" ] in
  Alcotest.(check bool) "layout differs" false (Dense.bits_equal a c)

(* Pinned contraction into a slab position equals slicing by hand; the
   rest of the target is untouched. *)
let test_kernel_pins () =
  let rng = Prng.create ~seed:44 in
  let a = Dense.create [ (i "s", 2); (i "p", 3); (i "k", 4) ] in
  let b = Dense.create [ (i "k", 4); (i "q", 5); (i "s", 2) ] in
  Dense.fill_random a rng;
  Dense.fill_random b rng;
  let into = Dense.create [ (i "s", 2); (i "p", 3); (i "q", 5) ] in
  Kernel.contract_acc
    ~pin_out:[ (i "s", 1) ]
    ~pin_a:[ (i "s", 1) ]
    ~pin_b:[ (i "s", 1) ]
    ~into a b;
  let expect =
    Einsum.contract2_ref
      ~out:(idx_list [ "p"; "q" ])
      (Dense.slice a (i "s") 1)
      (Dense.slice b (i "s") 1)
  in
  Alcotest.(check bool) "pinned slab" true
    (Dense.equal_approx (Dense.slice into (i "s") 1) expect);
  check_float "other slab untouched" 0.0
    (Dense.frobenius (Dense.slice into (i "s") 0))

let test_kernel_pin_errors () =
  let a = Dense.create [ (i "p", 3) ] in
  let into = Dense.create [ (i "p", 3) ] in
  (match Kernel.contract_acc ~pin_a:[ (i "z", 0) ] ~into a (Dense.scalar 1.0) with
  | exception Tce_error.Error _ -> ()
  | () -> Alcotest.fail "foreign pin accepted");
  (match Kernel.contract_acc ~pin_a:[ (i "p", 3) ] ~into a (Dense.scalar 1.0) with
  | exception Tce_error.Error _ -> ()
  | () -> Alcotest.fail "out-of-range pin accepted");
  (* Windows fail the same way, and a window's length is the extent the
     call checks. *)
  let big = Dense.create [ (i "p", 5) ] in
  List.iter
    (fun (what, call) ->
      match call () with
      | exception Tce_error.Error _ -> ()
      | () -> Alcotest.failf "%s accepted" what)
    [
      ( "foreign window",
        fun () ->
          Kernel.contract_acc ~win_a:[ (i "z", (0, 1)) ] ~into a
            (Dense.scalar 1.0) );
      ( "window past the end",
        fun () ->
          Kernel.contract_acc ~win_a:[ (i "p", (3, 3)) ] ~into big
            (Dense.scalar 1.0) );
      ( "negative window offset",
        fun () ->
          Kernel.contract_acc ~win_a:[ (i "p", (-1, 3)) ] ~into big
            (Dense.scalar 1.0) );
      ( "empty window",
        fun () ->
          Kernel.contract_acc ~win_a:[ (i "p", (0, 0)) ] ~into big
            (Dense.scalar 1.0) );
      ( "label pinned and windowed",
        fun () ->
          Kernel.contract_acc ~pin_a:[ (i "p", 0) ]
            ~win_a:[ (i "p", (0, 3)) ] ~into big (Dense.scalar 1.0) );
      ( "window length against a different extent",
        fun () ->
          Kernel.contract_acc ~win_a:[ (i "p", (1, 4)) ] ~into big
            (Dense.scalar 1.0) );
    ];
  Kernel.contract_acc ~win_a:[ (i "p", (2, 3)) ] ~into big (Dense.scalar 1.0)

(* ---------------- Coords ---------------- *)

let test_coords_strides () =
  Alcotest.(check (array int)) "strides" [| 12; 4; 1 |]
    (Coords.strides [| 2; 3; 4 |]);
  Alcotest.(check int) "total" 24 (Coords.total [| 2; 3; 4 |]);
  Alcotest.(check int) "total empty" 1 (Coords.total [||])

let test_coords_iter_order () =
  let seen = ref [] in
  Coords.iter [| 2; 2 |] (fun c -> seen := Array.to_list c :: !seen);
  Alcotest.(check (list (list int))) "row major"
    [ [ 0; 0 ]; [ 0; 1 ]; [ 1; 0 ]; [ 1; 1 ] ]
    (List.rev !seen)

let test_coords_scalar_iter () =
  let n = ref 0 in
  Coords.iter [||] (fun _ -> incr n);
  Alcotest.(check int) "rank-0 iterates once" 1 !n

let suite =
  [
    ( "tensor.dense",
      [
        case "create/get/set/add" test_create_get_set;
        case "creation errors" test_create_errors;
        case "coordinate errors" test_coordinate_errors;
        case "scalars" test_scalar;
        case "init and iteri" test_init_iteri;
        case "transpose" test_transpose;
        case "slice" test_slice;
        case "block extract/insert roundtrip" test_block_roundtrip;
        case "add_block accumulates" test_add_block;
        case "equal_approx across storage orders" test_equal_approx_orders;
        case "map2 shape check" test_map2_shape_check;
      ] );
    ( "tensor.einsum",
      [
        case "2x2 matmul" test_matmul;
        case "hadamard and outer products" test_hadamard_and_outer;
        case "full contraction to scalar" test_dot_product_rejected;
        case "sum_over" test_sum_over;
        case "error cases" test_einsum_errors;
        case "flops count" test_flops_count;
        qcheck_matmul;
        qcheck_contract_commutes;
        case "add and scale" test_add_and_scale;
      ] );
    ( "tensor.kernel",
      [
        qcheck_kernel_vs_ref;
        qcheck_acc_equivalence;
        case "CCSD shape hits the microkernel" test_ccsd_hits_microkernel;
        case "non-coalescible layout walks, exact" test_noncoalescible_walks;
        case "flavor probes and walk oracle" test_kernel_paths;
        case "safe flat view" test_dense_safe_view;
        case "pinned slab contraction" test_kernel_pins;
        case "pin errors" test_kernel_pin_errors;
      ] );
    ( "tensor.coords",
      [
        case "strides and totals" test_coords_strides;
        case "row-major iteration" test_coords_iter_order;
        case "rank-0 iteration" test_coords_scalar_iter;
      ] );
  ]
