(* Seeded property sweeps.

   1. Randomized binary contractions — random label sharing, extents <= 8,
      random storage orders and random pinned slices — checked against the
      frozen naive oracle [Einsum.contract2_ref], and the accumulating
      entry point against contract-then-add.

   2. Differential model-vs-replay: on uniform (affine alpha-beta)
      machines with extents divisible by the grid side, the discrete-event
      replay reproduces the cost model exactly, so
      [Plan.overlapped_seconds] and the replay's [overlapped_seconds]
      must agree to 1e-9 — and the replay's serialized clocks must be
      bit-invariant under the overlap law (overlap only re-interprets the
      per-step deltas; it never touches the replayed timeline).

   Everything is driven by the repo's own SplitMix64 [Prng], so each case
   is reproducible from the block seed alone. *)

open Tce
open Helpers

(* ---------------- random binary contractions ---------------- *)

let pool = [ "p"; "q"; "r"; "s"; "t"; "u"; "v" ]

(* Random subset of [pool] of size 1..4, in random order. *)
let random_labels prng =
  let shuffled = Prng.shuffle prng pool in
  let n = 1 + Prng.int prng ~bound:4 in
  List.filteri (fun j _ -> j < n) shuffled |> List.map Index.v

(* A random contraction instance: operands [a]/[b] with overlapping label
   sets, a random non-empty output subset of their union in random order,
   extents 1..8 shrunk until the full iteration space is small enough for
   the naive oracle. *)
let random_instance prng =
  let la = random_labels prng and lb = random_labels prng in
  let union =
    la @ List.filter (fun l -> not (List.exists (Index.equal l) la)) lb
  in
  let extents = Hashtbl.create 8 in
  List.iter
    (fun l -> Hashtbl.replace extents l (1 + Prng.int prng ~bound:8))
    union;
  let full_space () =
    List.fold_left (fun acc l -> acc * Hashtbl.find extents l) 1 union
  in
  while full_space () > 20_000 do
    let l = Prng.pick prng union in
    Hashtbl.replace extents l (max 1 (Hashtbl.find extents l / 2))
  done;
  let out =
    let shuffled = Prng.shuffle prng union in
    let chosen = List.filter (fun _ -> Prng.bool prng) shuffled in
    if chosen = [] then [ List.hd shuffled ] else chosen
  in
  let tensor labels =
    let t = Dense.create (List.map (fun l -> (l, Hashtbl.find extents l)) labels) in
    Dense.fill_random t prng;
    t
  in
  (tensor la, tensor lb, out, extents)

let check_case ~ctx expected actual =
  if not (Dense.equal_approx ~tol:1e-9 expected actual) then
    Alcotest.failf "%s: kernel diverged from the reference oracle" ctx

(* The path kernel.mli prescribes for a call, from its labels: the walk
   when the output iterates no dimension, or when its innermost iterated
   dimension is carried by both operands at unit stride in the output's
   storage; GEMM otherwise. [out] lists the output's dimensions in
   storage order as (label, stored extent, iterated extent), the latter
   1 when pinned and the window's length when windowed; [left] and
   [right] are the labels each operand iterates. The key names the arm,
   so a sweep can check it reached GEMM in both operand orders (the
   kernel swaps the operands when the left one carries that dimension)
   and the walk. *)
let prescribed_path ~out ~left ~right =
  let rec inner unit = function
    | [] -> (Kernel.Walk, "walk")
    | (_, stored, iterated) :: outer when iterated <= 1 ->
      inner (unit && stored = 1) outer
    | (l, _, _) :: _ -> (
      let carries = List.exists (Index.equal l) in
      match (carries left, carries right) with
      | true, true when unit -> (Kernel.Walk, "walk")
      | false, true when unit -> (Kernel.Gemm, "GEMM")
      | true, false when unit -> (Kernel.Gemm, "GEMM, operands swapped")
      | _ -> (Kernel.Gemm, "GEMM, strided output"))
  in
  inner true (List.rev out)

(* Records the prescribed path's key in [seen] and fails unless the
   call took that path. *)
let check_path ~ctx seen (path, key) =
  Hashtbl.replace seen key ();
  if Kernel.last_path () <> path then
    Alcotest.failf "%s: took the %s path where the rule prescribes %s" ctx
      (if Kernel.last_path () = Kernel.Gemm then "GEMM" else "walk")
      key

let check_reached ~seed seen =
  List.iter
    (fun key ->
      if not (Hashtbl.mem seen key) then
        Alcotest.failf "seed %d: no case took the %s path" seed key)
    [ "GEMM"; "GEMM, operands swapped"; "walk" ]

(* Kernel path vs the frozen naive oracle. *)
let kernel_vs_ref_block ~seed ~count () =
  let prng = Prng.create ~seed in
  for case = 1 to count do
    let a, b, out, _ = random_instance prng in
    check_case
      ~ctx:(Printf.sprintf "seed %d case %d" seed case)
      (Einsum.contract2_ref ~out a b)
      (Einsum.contract2 ~out a b)
  done

(* contract2_acc == contract2 + pointwise add, from a random start. *)
let acc_vs_add_block ~seed ~count () =
  let prng = Prng.create ~seed in
  for case = 1 to count do
    let a, b, out, extents = random_instance prng in
    let into0 =
      let t =
        Dense.create (List.map (fun l -> (l, Hashtbl.find extents l)) out)
      in
      Dense.fill_random t prng;
      t
    in
    let into = Dense.copy into0 in
    Einsum.contract2_acc ~into a b;
    check_case
      ~ctx:(Printf.sprintf "seed %d case %d" seed case)
      (Einsum.add into0 (Einsum.contract2 ~out a b))
      into
  done

(* Pinned slabs: contracting full tensors with [pin_a]/[pin_b]/[pin_out]
   fixing private extra dimensions must equal contracting the slices, and
   must leave every other slab of the output untouched. *)
let pins_block ~seed ~count () =
  let prng = Prng.create ~seed in
  for case = 1 to count do
    let ctx = Printf.sprintf "seed %d case %d" seed case in
    let a, b, out, extents = random_instance prng in
    (* Private pinned labels, absent from the contraction proper. *)
    let xa = Index.v "xa" and xb = Index.v "xb" and xo = Index.v "xo" in
    let ea = 2 + Prng.int prng ~bound:2
    and eb = 2 + Prng.int prng ~bound:2
    and eo = 2 + Prng.int prng ~bound:2 in
    let extend t extra_label extra_ext =
      (* Insert the extra dimension at a random position. *)
      let dims = Dense.dims t in
      let k = Prng.int prng ~bound:(List.length dims + 1) in
      let dims' =
        List.filteri (fun j _ -> j < k) dims
        @ [ (extra_label, extra_ext) ]
        @ List.filteri (fun j _ -> j >= k) dims
      in
      let big = Dense.create dims' in
      Dense.fill_random big prng;
      big
    in
    let big_a = extend a xa ea
    and big_b = extend b xb eb in
    let big_out =
      extend (Dense.create (List.map (fun l -> (l, Hashtbl.find extents l)) out))
        xo eo
    in
    let pa = Prng.int prng ~bound:ea
    and pb = Prng.int prng ~bound:eb
    and po = Prng.int prng ~bound:eo in
    let before = Dense.copy big_out in
    Kernel.contract_acc ~pin_a:[ (xa, pa) ] ~pin_b:[ (xb, pb) ]
      ~pin_out:[ (xo, po) ] ~into:big_out big_a big_b;
    (* The pinned slab must equal slice-then-contract. *)
    let expected_slab =
      let into = Dense.slice before xo po in
      Einsum.contract2_acc ~into (Dense.slice big_a xa pa)
        (Dense.slice big_b xb pb);
      into
    in
    check_case ~ctx expected_slab (Dense.slice big_out xo po);
    (* Every other slab is untouched. *)
    for other = 0 to eo - 1 do
      if other <> po then
        if
          not
            (Dense.equal_approx ~tol:0.0
               (Dense.slice before xo other)
               (Dense.slice big_out xo other))
        then Alcotest.failf "%s: pin leaked into slab %d" ctx other
    done
  done

(* Windows: contracting [(offset, length)] windows of larger tensors in
   place ([win_a]/[win_b]/[win_out]) must give, bit for bit, what
   contracting their [Dense.block] copies gives, and what the walk
   oracle gives on the same windows; every cell outside the output
   window must keep its bits. Each instance is grown by up to two cells
   per dimension, with the window at a random offset, and runs in both
   operand orders; each call must take the path the kernel's rule
   prescribes, and the sweep must reach GEMM in both operand orders and
   the walk. *)
let windows_block ~seed ~count () =
  let prng = Prng.create ~seed in
  let seen = Hashtbl.create 4 in
  let widen t =
    let full =
      List.map (fun (l, e) -> (l, e, Prng.int prng ~bound:3)) (Dense.dims t)
    in
    let big =
      Dense.create (List.map (fun (l, e, extra) -> (l, e + extra)) full)
    in
    Dense.fill_random big prng;
    ( big,
      List.map
        (fun (l, e, extra) -> (l, (Prng.int prng ~bound:(extra + 1), e)))
        full )
  in
  Fun.protect
    ~finally:(fun () -> Kernel.set_walk_oracle false)
    (fun () ->
      for case = 1 to count do
        let a, b, out, extents = random_instance prng in
        let big_a, win_a = widen a and big_b, win_b = widen b in
        let big_out, win_out =
          widen
            (Dense.create (List.map (fun l -> (l, Hashtbl.find extents l)) out))
        in
        List.iter
          (fun (order, (x, win_x), (y, win_y)) ->
            let ctx = Printf.sprintf "seed %d case %d %s" seed case order in
            let windowed () =
              let into = Dense.copy big_out in
              Kernel.contract_acc ~win_a:win_x ~win_b:win_y ~win_out ~into x y;
              into
            in
            Kernel.set_walk_oracle false;
            let packed = windowed () in
            check_path ~ctx seen
              (prescribed_path
                 ~out:
                   (List.map
                      (fun (l, stored) ->
                        let _, (_, len) =
                          List.find (fun (l', _) -> Index.equal l l') win_out
                        in
                        (l, stored, len))
                      (Dense.dims big_out))
                 ~left:(Dense.labels x) ~right:(Dense.labels y));
            Kernel.set_walk_oracle true;
            let walked = windowed () in
            Kernel.set_walk_oracle false;
            if not (Dense.bits_equal packed walked) then
              Alcotest.failf "%s: windowed pack path differs from walk" ctx;
            (* The copies' product, put back at the window's offsets. *)
            let copied = Dense.copy big_out in
            let into = Dense.block big_out win_out in
            Kernel.contract_acc ~into (Dense.block x win_x)
              (Dense.block y win_y);
            Dense.set_block copied
              (List.map (fun (l, (off, _)) -> (l, off)) win_out)
              into;
            if not (Dense.bits_equal copied packed) then
              Alcotest.failf "%s: windows differ from block copies" ctx)
          [ ("A·B", (big_a, win_a), (big_b, win_b));
            ("B·A", (big_b, win_b), (big_a, win_a)) ]
      done;
      check_reached ~seed seen)

(* The GEMM path must reproduce the generic stride walk's accumulation
   order exactly — not to tolerance, bit-for-bit. Each case contracts
   from the same randomized starting output once through the production
   path, which must be the one the kernel's rule prescribes, and once
   through the walk oracle (which runs on the same canonicalized
   dimension lists) and compares bit patterns. The sweep must reach GEMM
   in both operand orders and the walk. *)
let pack_vs_walk_block ~seed ~count () =
  at_every_width @@ fun lanes ->
  let prng = Prng.create ~seed in
  let seen = Hashtbl.create 4 in
  Fun.protect
    ~finally:(fun () -> Kernel.set_walk_oracle false)
    (fun () ->
      for case = 1 to count do
        let ctx = Printf.sprintf "%d lanes, seed %d case %d" lanes seed case in
        let a, b, out, extents = random_instance prng in
        let into0 =
          let t =
            Dense.create (List.map (fun l -> (l, Hashtbl.find extents l)) out)
          in
          Dense.fill_random t prng;
          t
        in
        let packed = Dense.copy into0 in
        Kernel.set_walk_oracle false;
        Einsum.contract2_acc ~into:packed a b;
        check_path ~ctx seen
          (prescribed_path
             ~out:(List.map (fun (l, e) -> (l, e, e)) (Dense.dims packed))
             ~left:(Dense.labels a) ~right:(Dense.labels b));
        let walked = Dense.copy into0 in
        Kernel.set_walk_oracle true;
        Einsum.contract2_acc ~into:walked a b;
        Kernel.set_walk_oracle false;
        if not (Dense.bits_equal packed walked) then
          Alcotest.failf "%s: pack path differs from walk oracle in the bits"
            ctx
      done;
      check_reached ~seed seen)

(* Same bit-for-bit claim with pinned-slab base offsets on all three
   tensors: packing must respect the slab bases exactly. A pinned label
   stored inside the output's innermost dimension leaves it strided,
   which the rule sends to GEMM whoever carries it. *)
let pack_vs_walk_pins_block ~seed ~count () =
  at_every_width @@ fun lanes ->
  let prng = Prng.create ~seed in
  let seen = Hashtbl.create 4 in
  Fun.protect
    ~finally:(fun () -> Kernel.set_walk_oracle false)
    (fun () ->
      for case = 1 to count do
        let ctx = Printf.sprintf "%d lanes, seed %d case %d" lanes seed case in
        let a, b, out, extents = random_instance prng in
        let xa = Index.v "xa" and xb = Index.v "xb" and xo = Index.v "xo" in
        let ea = 2 + Prng.int prng ~bound:2
        and eb = 2 + Prng.int prng ~bound:2
        and eo = 2 + Prng.int prng ~bound:2 in
        let extend t extra_label extra_ext =
          let dims = Dense.dims t in
          let k = Prng.int prng ~bound:(List.length dims + 1) in
          let dims' =
            List.filteri (fun j _ -> j < k) dims
            @ [ (extra_label, extra_ext) ]
            @ List.filteri (fun j _ -> j >= k) dims
          in
          let big = Dense.create dims' in
          Dense.fill_random big prng;
          big
        in
        let big_a = extend a xa ea and big_b = extend b xb eb in
        let big_out =
          extend
            (Dense.create (List.map (fun l -> (l, Hashtbl.find extents l)) out))
            xo eo
        in
        let pa = Prng.int prng ~bound:ea
        and pb = Prng.int prng ~bound:eb
        and po = Prng.int prng ~bound:eo in
        let contract into =
          Kernel.contract_acc ~pin_a:[ (xa, pa) ] ~pin_b:[ (xb, pb) ]
            ~pin_out:[ (xo, po) ] ~into big_a big_b;
          into
        in
        Kernel.set_walk_oracle false;
        let packed = contract (Dense.copy big_out) in
        check_path ~ctx seen
          (prescribed_path
             ~out:
               (List.map
                  (fun (l, e) -> (l, e, if Index.equal l xo then 1 else e))
                  (Dense.dims big_out))
             ~left:(Dense.labels a) ~right:(Dense.labels b));
        Kernel.set_walk_oracle true;
        let walked = contract (Dense.copy big_out) in
        Kernel.set_walk_oracle false;
        if not (Dense.bits_equal packed walked) then
          Alcotest.failf "%s: pinned pack path differs from walk in the bits"
            ctx
      done;
      check_reached ~seed seen)

(* A dense tensor over [dims] filled from [prng]. *)
let random_dense prng dims =
  let t = Dense.create dims in
  Dense.fill_random t prng;
  t

(* Run [contract] on a copy of [into0] through the GEMM path and on
   another copy through the walk oracle: the first must take the GEMM
   path and the two must agree in every bit. *)
let gemm_against_walk ctx contract into0 =
  Fun.protect
    ~finally:(fun () -> Kernel.set_walk_oracle false)
    (fun () ->
      let packed = Dense.copy into0 in
      contract packed;
      if Kernel.last_path () <> Kernel.Gemm then
        Alcotest.failf "%s: did not take the GEMM path" ctx;
      let walked = Dense.copy into0 in
      Kernel.set_walk_oracle true;
      contract walked;
      Kernel.set_walk_oracle false;
      if not (Dense.bits_equal packed walked) then
        Alcotest.failf "%s: GEMM differs from walk oracle in the bits" ctx)

(* GEMM shapes at the edges of the 4 × 2W register tile at every width
   (M, N in {1, 3, 4, 5, 7, 8, 9, 15, 16, 17}: one below, at and above
   4, 8 and 16) and one past each cache block (M = 65 > MC, N = 513 > NC,
   K = 257 > KC), which the random instances above (extents <= 8) rarely
   reach; every value appears in some shape. Each shape runs in both
   operand orders (B·A takes the flipped GEMM arm) and once between
   pinned slabs, the C slab's label innermost so C is strided, each from
   a random starting output, and must match the walk oracle bit for
   bit, at every tile width the host supports. *)
let gemm_edges () =
  at_every_width @@ fun lanes ->
  let prng = Prng.create ~seed:5201 in
  let random = random_dense prng in
  let i = Index.v "i" and j = Index.v "j" and k = Index.v "k" in
  let xa = Index.v "xa" and xo = Index.v "xo" in
  List.iter
    (fun (m, n, kk) ->
      let ctx = Printf.sprintf "%d lanes, M=%d N=%d K=%d" lanes m n kk in
      let a = random [ (i, m); (k, kk) ] and b = random [ (k, kk); (j, n) ] in
      let c0 = random [ (i, m); (j, n) ] in
      gemm_against_walk (ctx ^ " A·B")
        (fun into -> Kernel.contract_acc ~into a b)
        c0;
      gemm_against_walk (ctx ^ " B·A")
        (fun into -> Kernel.contract_acc ~into b a)
        c0;
      let big_a = random [ (xa, 2); (i, m); (k, kk) ] in
      gemm_against_walk (ctx ^ " pinned")
        (fun into ->
          Kernel.contract_acc ~pin_a:[ (xa, 1) ] ~pin_out:[ (xo, 1) ] ~into
            big_a b)
        (random [ (i, m); (j, n); (xo, 3) ]))
    [
      (1, 513, 3); (3, 4, 257); (4, 3, 1); (5, 1, 257); (65, 5, 3);
      (65, 513, 257); (7, 16, 3); (8, 17, 257); (9, 15, 1); (15, 8, 3);
      (16, 9, 5); (17, 7, 257); (513, 65, 3);
    ]

(* Batched GEMM across row blocks: C[b,i,j] = Σ_k A[b,i,k]·B[b,k,j] with
   (b, M, N, K) = (3, 65, 17, 257) and (2, 130, 72, 96), in both operand
   orders, against the walk oracle bit for bit at every tile width. The
   batch label is walked outside the block, so each batch index must
   pack its own B panel for every K strip and share it across the row
   blocks past MC; the random instances (extents <= 8) never combine a
   batch label with M > MC. *)
let gemm_batched () =
  at_every_width @@ fun lanes ->
  let prng = Prng.create ~seed:5202 in
  let random = random_dense prng in
  let bt = Index.v "b" and i = Index.v "i" in
  let j = Index.v "j" and k = Index.v "k" in
  List.iter
    (fun (nb, m, n, kk) ->
      let ctx =
        Printf.sprintf "%d lanes, batch %d, M=%d N=%d K=%d" lanes nb m n kk
      in
      let a = random [ (bt, nb); (i, m); (k, kk) ]
      and b = random [ (bt, nb); (k, kk); (j, n) ] in
      let c0 = random [ (bt, nb); (i, m); (j, n) ] in
      gemm_against_walk (ctx ^ " A·B")
        (fun into -> Kernel.contract_acc ~into a b)
        c0;
      gemm_against_walk (ctx ^ " B·A")
        (fun into -> Kernel.contract_acc ~into b a)
        c0)
    [ (3, 65, 17, 257); (2, 130, 72, 96) ]

(* The tile widths are 2, 4 and 8 lanes, of which the host runs a prefix
   with its widest as the default; [set_tile_lanes] refuses any other
   width, or one the CPU lacks, with a typed error and keeps the width
   it had. The case's name lists the widths the other kernel cases ran. *)
let tile_widths () =
  let own = Kernel.tile_lanes () and host = Kernel.supported_lanes () in
  Alcotest.(check bool) "a prefix of 2, 4, 8" true
    (List.mem host [ [ 2 ]; [ 2; 4 ]; [ 2; 4; 8 ] ]);
  Alcotest.(check int) "the widest is the default" (List.fold_left max 2 host)
    own;
  List.iter
    (fun w ->
      match Kernel.set_tile_lanes w with
      | exception Tce_error.Error (Tce_error.Msg _) ->
        Alcotest.(check int) (Printf.sprintf "%d lanes refused, width kept" w)
          own (Kernel.tile_lanes ())
      | () -> Alcotest.failf "%d lanes accepted" w)
    ([ 3; 16; 0; -4 ] @ List.filter (fun w -> not (List.mem w host)) [ 4; 8 ])

(* ---------------- differential: model vs replay ---------------- *)

(* A random uniform (affine) machine: step time is latency + bytes/bw with
   only two knots, so the characterization's piecewise-linear resampling
   is exact and the replay must reproduce the model bit-for-bit (up to
   float rounding). *)
let random_machine prng =
  Params.uniform
    ~name:(Printf.sprintf "uniform-%d" (Prng.int prng ~bound:1000000))
    ~latency:(Prng.float_range prng ~lo:1e-6 ~hi:1e-4)
    ~bandwidth:(Prng.float_range prng ~lo:1e6 ~hi:1e9)
    ~flop_rate:(Prng.float_range prng ~lo:1e8 ~hi:1e10)
    ~procs_per_node:(1 + Prng.int prng ~bound:4)
    ~mem_per_node_bytes:1e15

(* CCSD-shaped problem with every extent a multiple of the grid side, so
   distributed slices are uniform across ranks. *)
let divisible_problem prng ~side =
  let m () = side * (1 + Prng.int prng ~bound:4) in
  let abcd = m () and ef = m () and ijkl = m () in
  let text =
    Printf.sprintf
      {|
extents a=%d, b=%d, c=%d, d=%d, e=%d, f=%d, i=%d, j=%d, k=%d, l=%d
T1[b,c,d,f] = sum[e,l] B[b,e,f,l] * D[c,d,e,l]
T2[b,c,j,k] = sum[d,f] T1[b,c,d,f] * C[d,f,j,k]
S[a,b,i,j]  = sum[c,k] T2[b,c,j,k] * A[a,c,i,k]
|}
      abcd abcd abcd abcd ef ef ijkl ijkl ijkl ijkl
  in
  let problem = get_ok ~ctx:"parse" (Parser.parse text) in
  let seq = get_ok ~ctx:"seq" (Problem.to_sequence problem) in
  let tree = Tree.fuse_mult_sum (get_ok ~ctx:"tree" (Tree.of_sequence seq)) in
  (problem.Problem.extents, tree)

(* Two-step matrix chain, same divisibility discipline. *)
let chain_problem prng ~side =
  let m () = side * (1 + Prng.int prng ~bound:6) in
  let text =
    Printf.sprintf
      {|
extents m=%d, n=%d, k=%d, l=%d, o=%d
T[m,l] = sum[k] A[m,k] * B[k,l]
S[m,o] = sum[l] T[m,l] * C[l,o]
|}
      (m ()) (m ()) (m ()) (m ()) (m ())
  in
  let problem = get_ok ~ctx:"parse" (Parser.parse text) in
  let seq = get_ok ~ctx:"seq" (Problem.to_sequence problem) in
  let tree = Tree.fuse_mult_sum (get_ok ~ctx:"tree" (Tree.of_sequence seq)) in
  (problem.Problem.extents, tree)

let check_tight ~ctx expected actual =
  let scale = Float.max 1.0 (Float.abs expected) in
  if Float.abs (expected -. actual) > 1e-9 *. scale then
    Alcotest.failf "%s: model %.17g vs replay %.17g" ctx expected actual

let differential_block ~seed ~procs ~count () =
  let prng = Prng.create ~seed in
  let grid = Grid.create_exn ~procs in
  let side = Grid.side grid in
  for case = 1 to count do
    let ctx = Printf.sprintf "seed %d case %d (%d procs)" seed case procs in
    let params = random_machine prng in
    let ext, tree =
      if Prng.bool prng then divisible_problem prng ~side
      else chain_problem prng ~side
    in
    let rcost = Rcost.of_params params ~side in
    let cfg = Search.default_config ~grid ~params ~rcost () in
    let plan = get_ok ~ctx (Search.optimize cfg ext tree) in
    let overlap =
      get_ok ~ctx (Overlap.make ~factor:(Prng.float prng))
    in
    (* Overlap.none re-derives the serialized total. *)
    check_tight ~ctx:(ctx ^ " none=total")
      (Plan.total_seconds plan)
      (Plan.overlapped_seconds ~overlap:Overlap.none plan);
    (* The replay reproduces the model under any overlap factor. *)
    let replay =
      get_ok ~ctx
        (Tce_error.to_string_result
           (Simulate.run_plan ~overlap params ext plan))
    in
    check_tight ~ctx:(ctx ^ " overlapped")
      (Plan.overlapped_seconds ~overlap plan)
      replay.Simulate.overlapped_seconds;
    check_tight ~ctx:(ctx ^ " serialized total")
      (Plan.total_seconds plan)
      replay.Simulate.total_seconds;
    (* Serialized replay clocks are bit-invariant under the overlap law:
       only the on-the-side overlapped figure may differ. *)
    let plain =
      get_ok ~ctx
        (Tce_error.to_string_result (Simulate.run_plan params ext plan))
    in
    Alcotest.(check bool)
      (ctx ^ ": clocks invariant under overlap")
      true
      (plain.Simulate.comm_seconds = replay.Simulate.comm_seconds
      && plain.Simulate.compute_seconds = replay.Simulate.compute_seconds
      && plain.Simulate.total_seconds = replay.Simulate.total_seconds)
  done

(* The tolerance claim is real: on a *non*-affine machine (the Itanium
   characterization has re-sampled piecewise-linear knots) or non-divisible
   extents the agreement is only approximate — this guard documents that
   the exact-agreement suite above tests the interesting invariant rather
   than a trivial identity. *)
let test_divisibility_matters () =
  let prng = Prng.create ~seed:77 in
  let grid = Grid.create_exn ~procs:4 in
  let params = random_machine prng in
  let ext, tree = divisible_problem prng ~side:2 in
  (* Bump one extent off the divisible lattice. *)
  let ext = Extents.of_list_exn
      (List.map
         (fun (ix, e) ->
           if Index.equal ix (Index.v "a") then (ix, e + 1) else (ix, e))
         (Extents.bindings ext))
  in
  let rcost = Rcost.of_params params ~side:2 in
  let cfg = Search.default_config ~grid ~params ~rcost () in
  let plan = get_ok ~ctx:"plan" (Search.optimize cfg ext tree) in
  let replay =
    get_ok ~ctx:"replay"
      (Tce_error.to_string_result (Simulate.run_plan params ext plan))
  in
  (* Uneven slices make the replay cheaper or equal, never slower, and
     generally not exactly equal — the clamp below just asserts the sane
     direction without demanding exact divergence. *)
  Alcotest.(check bool) "replay <= model + tol" true
    (replay.Simulate.total_seconds
    <= Plan.total_seconds plan +. 1e-9 *. Plan.total_seconds plan)

(* ---------------- multi-term sums: sharing is numerically invisible ------- *)

(* Ground truth for the sum tentpole: hoisting shared subtrees —
   computing each representative once and reading it from every consumer
   through index relabeling — must be bitwise-identical to evaluating
   each term independently and accumulating, because both sides run the
   same float operations in the same order. Checked per seeded instance
   for the full detected grouping and for the exact grouping the sum
   optimizer selected. *)
let sum_sharing_numeric_block ~seed ~count () =
  let instances = Gencorpus.sum_fuzz ~seed ~count in
  List.iteri
    (fun i { Gencorpus.sname; sext; sum } ->
      let ctx = Printf.sprintf "sum %s" sname in
      let inputs = Sumexpr.random_inputs sext ~seed:(seed + i) sum in
      let independent = Sumexpr.eval sext ~inputs sum in
      let check_selection ~what selected =
        let shared, terms = Sumexpr.hoist sum ~selected in
        let via = Sumexpr.eval_with_sharing sext ~inputs ~shared ~terms in
        if not (Dense.bits_equal independent via) then
          Alcotest.failf "%s: %s sharing changed the bits" ctx what
      in
      check_selection ~what:"fully detected" (Sumexpr.detect sext sum);
      let _, cfg = search_config 4 in
      match Search.optimize_sum cfg sext sum with
      | Error _ -> ()
      | Ok sp ->
        let chosen =
          List.filter
            (fun (g : Sumexpr.group) ->
              List.exists
                (fun (n, _, _) -> String.equal n g.Sumexpr.name)
                sp.Plan.shared)
            (Sumexpr.detect sext sum)
        in
        check_selection ~what:"optimizer-selected" chosen)
    instances

(* A sum with nothing shareable costs exactly the sum of its per-term
   optima: the sum DP degenerates to independent per-term planning, and
   the assembled total accumulates the same floats in the same order. *)
let test_sum_zero_share_cost_is_sum_of_optima () =
  let rng = Prng.create ~seed:606 in
  for trial = 1 to 10 do
    let seed = 1 + Prng.int rng ~bound:1_000_000 in
    let terms = 2 + Prng.int rng ~bound:2 in
    let sext, sum =
      Gencorpus.random_sum ~shared:false ~seed ~terms ~lo:4 ~hi:8 ()
    in
    let _, cfg = search_config 4 in
    let ctx = Printf.sprintf "trial %d" trial in
    let sp = get_ok ~ctx (Search.optimize_sum cfg sext sum) in
    Alcotest.(check int) (ctx ^ ": nothing shared") 0
      (List.length sp.Plan.shared);
    let per_term =
      List.fold_left
        (fun acc (t : Sumexpr.term) ->
          acc
          +. Plan.comm_cost
               (get_ok ~ctx:(ctx ^ " term")
                  (Search.optimize cfg sext t.Sumexpr.tree)))
        0.0 (Sumexpr.terms sum)
    in
    if not (Float.equal sp.Plan.sum_comm_cost per_term) then
      Alcotest.failf "%s: sum cost %.17g <> per-term total %.17g" ctx
        sp.Plan.sum_comm_cost per_term
  done

let suite =
  [
    ( "prop.kernel",
      [
        case "kernel == ref oracle (seeds 1001..1004, 25 cases each)"
          (kernel_vs_ref_block ~seed:1001 ~count:25);
        case "kernel == ref oracle (seed 1002)"
          (kernel_vs_ref_block ~seed:1002 ~count:25);
        case "kernel == ref oracle (seed 1003)"
          (kernel_vs_ref_block ~seed:1003 ~count:25);
        case "kernel == ref oracle (seed 1004)"
          (kernel_vs_ref_block ~seed:1004 ~count:25);
        case "acc == contract + add (seed 2001)"
          (acc_vs_add_block ~seed:2001 ~count:20);
        case "acc == contract + add (seed 2002)"
          (acc_vs_add_block ~seed:2002 ~count:20);
        case "acc == contract + add (seed 2003)"
          (acc_vs_add_block ~seed:2003 ~count:20);
        case "pins == slice contraction (seed 3001)"
          (pins_block ~seed:3001 ~count:20);
        case "pins == slice contraction (seed 3002)"
          (pins_block ~seed:3002 ~count:20);
        case "pins == slice contraction (seed 3003)"
          (pins_block ~seed:3003 ~count:20);
        case "windows == block copies and walk, bit-for-bit (seed 3101)"
          (windows_block ~seed:3101 ~count:60);
        case "pack == walk oracle, bit-for-bit (seed 5001)"
          (pack_vs_walk_block ~seed:5001 ~count:40);
        case "pack == walk oracle, bit-for-bit (seed 5002)"
          (pack_vs_walk_block ~seed:5002 ~count:40);
        case "pinned pack == walk oracle, bit-for-bit (seed 5101)"
          (pack_vs_walk_pins_block ~seed:5101 ~count:25);
        case "GEMM tile and block edges == walk oracle, bit-for-bit"
          gemm_edges;
        case "batched GEMM across row blocks == walk oracle, bit-for-bit"
          gemm_batched;
        case
          (Printf.sprintf "tile widths run: %s lanes; 3 and 16 refused typed"
             (String.concat ", "
                (List.map string_of_int (Kernel.supported_lanes ()))))
          tile_widths;
      ] );
    ( "prop.differential",
      [
        case "model == replay, 2x2 (seed 4001)"
          (differential_block ~seed:4001 ~procs:4 ~count:4);
        case "model == replay, 2x2 (seed 4002)"
          (differential_block ~seed:4002 ~procs:4 ~count:4);
        case "model == replay, 3x3 (seed 4003)"
          (differential_block ~seed:4003 ~procs:9 ~count:3);
        case "model == replay, 3x3 (seed 4004)"
          (differential_block ~seed:4004 ~procs:9 ~count:3);
        case "non-divisible extents only relax the bound"
          test_divisibility_matters;
      ] );
    ( "prop.sum",
      [
        case "shared evaluation bitwise == independent (seed 6001)"
          (sum_sharing_numeric_block ~seed:6001 ~count:25);
        case "shared evaluation bitwise == independent (seed 6002)"
          (sum_sharing_numeric_block ~seed:6002 ~count:25);
        case "zero-share sum costs exactly the sum of term optima"
          test_sum_zero_share_cost_is_sum_of_optima;
      ] );
  ]
