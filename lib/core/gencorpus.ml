open! Import

type instance = { name : string; ext : Extents.t; tree : Tree.t }

let idx i = Index.v (Printf.sprintf "i%d" i)

let random_extents rng ~lo ~hi indices =
  Extents.of_list_exn
    (List.map (fun i -> (i, lo + Prng.int rng ~bound:(hi - lo + 1))) indices)

let matrix_chain ~seed ~n ~lo ~hi =
  if n < 2 then Tce_error.failf "Gencorpus.matrix_chain: need n >= 2 (got %d)" n;
  let rng = Prng.create ~seed in
  let xs = Array.init (n + 1) idx in
  let leaf k =
    Tree.Leaf (Aref.v (Printf.sprintf "M%d" k) [ xs.(k - 1); xs.(k) ])
  in
  let rec build acc k =
    if k > n then acc
    else
      let name = if k = n then "S" else Printf.sprintf "T%d" (k - 1) in
      let out = Aref.v name [ xs.(0); xs.(k) ] in
      build (Tree.Contract (out, [ xs.(k - 1) ], acc, leaf k)) (k + 1)
  in
  let tree = build (leaf 1) 2 in
  let ext = random_extents rng ~lo ~hi (Array.to_list xs) in
  (ext, tree)

(* Random contraction tree, built top down: the root's output indices
   are split between the two children, each internal node introduces 1–2
   fresh summation indices shared by both children, and every node's
   index list stays within [rank]. By construction each node satisfies
   the contraction well-formedness rules (sum indices nonempty and in
   both children, out = union minus sum, all node names distinct), so
   [Tree.validate] and [Formula.check_contract] hold everywhere. *)
let random_einsum ~seed ~tensors ~rank ~lo ~hi =
  if tensors < 2 then
    Tce_error.failf "Gencorpus.random_einsum: need >= 2 tensors (got %d)"
      tensors;
  if rank < 2 then
    Tce_error.failf "Gencorpus.random_einsum: need rank >= 2 (got %d)" rank;
  let rng = Prng.create ~seed in
  let all_indices = ref [] in
  let fresh =
    let c = ref (-1) in
    fun () ->
      incr c;
      let i = idx !c in
      all_indices := i :: !all_indices;
      i
  in
  let fresh_leaf =
    let c = ref 0 in
    fun () ->
      incr c;
      Printf.sprintf "A%d" !c
  in
  let fresh_inter =
    let c = ref 0 in
    fun () ->
      incr c;
      Printf.sprintf "T%d" !c
  in
  let rec build ~k ~out ~name =
    if k = 1 then Tree.Leaf (Aref.v (fresh_leaf ()) out)
    else begin
      let k1 = 1 + Prng.int rng ~bound:(k - 1) in
      let k2 = k - k1 in
      (* 1–3 fresh summation indices, capped so both children can absorb
         their share of the output indices within [rank]. *)
      let nout = List.length out in
      let nsum =
        let want = 1 + Prng.int rng ~bound:3 in
        let max_sum = Int.min (rank - ((nout + 1) / 2)) (rank - 1) in
        Int.max 1 (Int.min want max_sum)
      in
      let sums = List.init nsum (fun _ -> fresh ()) in
      (* Split the output indices: each child takes a disjoint share of
         at least one (the Cannon template needs both operands to
         contribute an output index — nonempty I and J sets), and
         neither side may exceed rank - nsum of them. The split is
         biased toward balance — the Cannon variant space at a node is
         |I|·|J|·|K|·3, so lopsided splits collapse the search space the
         corpus exists to exercise. *)
      let cap = rank - nsum in
      let shuffled = Prng.shuffle rng out in
      let n_left =
        let lo_l = Int.max 1 (nout - cap) and hi_l = Int.min (nout - 1) cap in
        let lo_l = Int.max lo_l ((nout / 2) - 1) |> Int.min hi_l in
        let hi_l = Int.min hi_l ((nout + 1) / 2) |> Int.max lo_l in
        lo_l + Prng.int rng ~bound:(hi_l - lo_l + 1)
      in
      let out_l = Listx.take n_left shuffled in
      let out_r = List.filteri (fun i _ -> i >= n_left) shuffled in
      let left = build ~k:k1 ~out:(out_l @ sums) ~name:(fresh_inter ()) in
      let right = build ~k:k2 ~out:(out_r @ sums) ~name:(fresh_inter ()) in
      Tree.Contract (Aref.v name out, sums, left, right)
    end
  in
  (* The root keeps rank - 2 output indices (at least 2): a higher-rank
     root feeds wider I/J sets down the whole tree. *)
  let root_rank = Int.max 2 (Int.min 4 (rank - 2)) in
  let root_out = List.init root_rank (fun _ -> fresh ()) in
  let tree = build ~k:tensors ~out:root_out ~name:"S" in
  let ext = random_extents rng ~lo ~hi !all_indices in
  (ext, tree)

(* The benchmark corpus. The einsum sizes make the exact DP take tens
   of milliseconds (gencorpus.mli gives the measured times), the largest
   cases the search bench times. *)
let bench_corpus () =
  let chain ~seed ~n ~lo ~hi name =
    let ext, tree = matrix_chain ~seed ~n ~lo ~hi in
    { name; ext; tree }
  in
  let einsum ~seed ~tensors ~rank ~lo ~hi name =
    let ext, tree = random_einsum ~seed ~tensors ~rank ~lo ~hi in
    { name; ext; tree }
  in
  [
    (* Fast sanity case: rank-2 chains have a small variant space, so
       this solves in milliseconds — it anchors the low end and checks
       the chain generator end to end. *)
    chain ~seed:11 ~n:16 ~lo:48 ~hi:160 "chain-16";
    einsum ~seed:11 ~tensors:7 ~rank:7 ~lo:6 ~hi:16 "einsum-7t-r7";
    einsum ~seed:6 ~tensors:8 ~rank:7 ~lo:6 ~hi:16 "einsum-8t-r7";
  ]

let fuzz ~seed ~count =
  let rng = Prng.create ~seed in
  List.init count (fun i ->
      let seed = Prng.int rng ~bound:1_000_000 in
      let tensors = 3 + Prng.int rng ~bound:2 in
      let rank = 3 + Prng.int rng ~bound:2 in
      let ext, tree = random_einsum ~seed ~tensors ~rank ~lo:4 ~hi:10 in
      { name = Printf.sprintf "fuzz-%d" i; ext; tree })

(* --- Multi-term sums with planted cross-term sharing ------------------- *)

type sum_instance = { sname : string; sext : Extents.t; sum : Sumexpr.t }

(* Every term is [E__tᵢ[o1,o2] = Σₓ C(aᵢ,x) · Rᵢ[x,bᵢ]] where [C(a,x) =
   Σ_c P[a,c]·Q[c,x]] is the planted shared subtree: identical leaves
   across terms, so [Sumexpr.detect] matches every occurrence by
   content. With [~permute], odd terms take [(aᵢ,bᵢ) = (o2,o1)] — the
   permuted-repeat pattern [s_a·t_b + s_b·t_a]; the two output extents
   are equal, so the permuted occurrences still share their canonical
   key and the stored representative stands in by pure relabeling. With
   [~shared:false] the inner leaves are term-private ([Pᵢ], [Qᵢ]): no
   common subtree exists, the zero-sharing baseline case. With
   [~double], the right factor is itself a planted shared subtree
   [D(x,b) = Σ_d U[x,d]·V[d,b]] instead of a private leaf — two CSE
   groups, exercising the subset enumeration and the lifetime memory
   accounting across both. *)
let random_sum ?(permute = true) ?(shared = true) ?(double = false) ~seed
    ~terms ~lo ~hi () =
  if terms < 2 then
    Tce_error.failf "Gencorpus.random_sum: need terms >= 2 (got %d)" terms;
  let rng = Prng.create ~seed in
  let o1 = Index.v "o1"
  and o2 = Index.v "o2"
  and x = Index.v "x"
  and c = Index.v "c"
  and d = Index.v "d" in
  let pick () = lo + Prng.int rng ~bound:(hi - lo + 1) in
  let e_out = pick () in
  let sext =
    Extents.of_list_exn
      [ (o1, e_out); (o2, e_out); (x, pick ()); (c, pick ()); (d, pick ()) ]
  in
  let leaf name idxs = Tree.Leaf (Aref.v name idxs) in
  let inner_left i a =
    let p, q =
      if shared then ("P", "Q")
      else (Printf.sprintf "P%d" (i + 1), Printf.sprintf "Q%d" (i + 1))
    in
    Tree.Contract
      ( Aref.v (Printf.sprintf "C%d" (i + 1)) [ a; x ],
        [ c ],
        leaf p [ a; c ],
        leaf q [ c; x ] )
  in
  let right_factor i b =
    if double then
      Tree.Contract
        ( Aref.v (Printf.sprintf "D%d" (i + 1)) [ x; b ],
          [ d ],
          leaf "U" [ x; d ],
          leaf "V" [ d; b ] )
    else leaf (Printf.sprintf "R%d" (i + 1)) [ x; b ]
  in
  let term i =
    let a, b = if permute && i mod 2 = 1 then (o2, o1) else (o1, o2) in
    let tree =
      Tree.Contract
        ( Aref.v (Printf.sprintf "E__t%d" (i + 1)) [ o1; o2 ],
          [ x ],
          inner_left i a,
          right_factor i b )
    in
    let coeff =
      (if Prng.bool rng then 1.0 else -1.0)
      *. (1.0 +. float_of_int (Prng.int rng ~bound:3))
    in
    { Sumexpr.coeff; tree }
  in
  let sum =
    match Sumexpr.create ~out:(Aref.v "E" [ o1; o2 ]) (List.init terms term) with
    | Ok s -> s
    | Error e -> Tce_error.failf "Gencorpus.random_sum: %s" e
  in
  (sext, sum)

let sum_fuzz ~seed ~count =
  let rng = Prng.create ~seed in
  List.init count (fun i ->
      let seed = Prng.int rng ~bound:1_000_000 in
      let terms = 2 + Prng.int rng ~bound:2 in
      let permute = Prng.bool rng in
      (* 1-in-4: no planted sharing, the zero-CSE baseline family. *)
      let shared = Prng.int rng ~bound:4 > 0 in
      let double = shared && Prng.bool rng in
      let sext, sum =
        random_sum ~permute ~shared ~double ~seed ~terms ~lo:3 ~hi:6 ()
      in
      let sname =
        Printf.sprintf "sumfuzz-%d%s%s%s" i
          (if permute then "-perm" else "")
          (if shared then "" else "-noshare")
          (if double then "-double" else "")
      in
      { sname; sext; sum })

(* The sum bench corpus: planted sharing at extents big enough that the
   amortized shared intermediate visibly beats per-term-independent
   planning, small enough that the subset × assignment enumeration stays
   sub-second. *)
let sum_bench_corpus () =
  let mk name ?permute ?double ~seed ~terms ~lo ~hi () =
    let sext, sum = random_sum ?permute ?double ~seed ~terms ~lo ~hi () in
    { sname = name; sext; sum }
  in
  [
    mk "sum-2t" ~permute:false ~seed:21 ~terms:2 ~lo:24 ~hi:48 ();
    mk "sum-3t-perm" ~permute:true ~seed:22 ~terms:3 ~lo:24 ~hi:48 ();
    mk "sum-2t-double" ~permute:false ~double:true ~seed:23 ~terms:2 ~lo:16
      ~hi:40 ();
  ]
