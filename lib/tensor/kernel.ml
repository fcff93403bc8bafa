open! Import
module A1 = Bigarray.Array1

(* One dimension of the joint iteration space of [C(out) += Σ A·B]: its
   extent and the stride it contributes to each tensor's flat offset
   (0 when the tensor does not carry the label). [sc = 0] marks a
   summation dimension. Classifying by stride pattern instead of label
   sets means batch dimensions (present everywhere), M/N-like
   dimensions (one operand + output) and summation dimensions present in
   only one operand (stride 0 in the other) all fall out of the same
   representation. *)
type dim = { ext : int; sa : int; sb : int; sc : int }

let fail fmt = Tce_error.failf fmt

(* Cache-blocking parameters: KC bounds the summation strip so the A/B
   panels stay cache-resident across the register-tile sweep; MC/NC bound
   the C panel touched per block. The register tile and the micro-panel
   format belong to gemm_stubs.c. *)
let kc = 256
let mc = 64
let nc = 512
let blocking () = (kc, mc, nc)

type path = Gemm | Walk

let last = ref Walk
let last_path () = !last

(* Oracle switch: route every contraction through the stride walk (on
   the very same canonicalized dimension lists the GEMM path uses), so
   tests can assert GEMM == walk bit-for-bit. *)
let walk_oracle = ref false
let set_walk_oracle b = walk_oracle := b

(* The GEMM tile's vector width in doubles: the widest this CPU and OS
   run, read once (gemm_stubs.c). Tests and benchmarks may narrow it to
   run every width the host has; nothing else selects it. *)
external gemm_max_lanes : unit -> int = "tce_gemm_max_lanes" [@@noalloc]

let widest_lanes = gemm_max_lanes ()
let host_lanes = List.filter (fun w -> w <= widest_lanes) [ 2; 4; 8 ]
let lanes = ref widest_lanes
let tile_lanes () = !lanes
let supported_lanes () = host_lanes

let set_tile_lanes w =
  if not (List.mem w host_lanes) then
    fail "Kernel.set_tile_lanes: %d lanes is not a tile width this host runs \
          (%s)"
      w
      (String.concat ", " (List.map string_of_int host_lanes));
  lanes := w

(* ------------------------------------------------------------------ *)
(* Canonicalization helpers                                            *)
(* ------------------------------------------------------------------ *)

(* Resolve the pins and windows of [t] to a base flat offset, and return
   the remaining (visible) labels in storage order, each with the extent
   it iterates, its stride, and the stride it would have in the
   [Dense.block] copy of [t]'s windows (its stride when [t] has none).
   A pinned dimension is excluded from iteration entirely; a windowed
   one iterates its window's length. Either way the position only
   shifts the base. *)
let apply_pins t ~pins ~wins =
  let base = ref 0 and seen = ref [] in
  let place what l p len =
    match Dense.extent_of t l with
    | exception Not_found ->
      fail "Kernel.contract_acc: %s label %s not in tensor" what (Index.name l)
    | e ->
      if List.exists (Index.equal l) !seen then
        fail "Kernel.contract_acc: label %s pinned or windowed twice"
          (Index.name l);
      if p < 0 || len < 1 || p + len > e then
        fail "Kernel.contract_acc: %s %s=(%d, %d) out of range (extent %d)"
          what (Index.name l) p len e;
      seen := l :: !seen;
      base := !base + (p * Dense.stride_of t l)
  in
  List.iter (fun (l, p) -> place "pinned" l p 1) pins;
  List.iter (fun (l, (off, len)) -> place "windowed" l off len) wins;
  let pinned l = List.exists (fun (l', _) -> Index.equal l l') pins in
  (* A dimension's copy stride is the product of the copy extents of
     the dimensions inside it. *)
  let rec visible = function
    | [] -> (1, [])
    | (l, e) :: rest ->
      let cs, vis = visible rest in
      let e =
        match List.find_opt (fun (l', _) -> Index.equal l l') wins with
        | Some (_, (_, len)) -> len
        | None -> e
      in
      (cs * e, if pinned l then vis else (l, e, Dense.stride_of t l, cs) :: vis)
  in
  (!base, snd (visible (Dense.dims t)))

(* Extent-1 dimensions contribute nothing to any offset. *)
let drop_unit dims = List.filter (fun d -> d.ext > 1) dims

(* Merge adjacent dimensions that are jointly contiguous in all three
   tensors: outer [o] directly encloses inner [i] when o's stride equals
   i's stride times i's extent — in A, B and C simultaneously (0 = 0·e
   covers absent labels). Coalescing turns e.g. a 4-index CCSD block into
   a plain M x N x K matmul. *)
let coalesce dims =
  List.fold_right
    (fun o acc ->
      match acc with
      | i :: rest
        when o.sa = i.sa * i.ext && o.sb = i.sb * i.ext && o.sc = i.sc * i.ext
        ->
        { ext = o.ext * i.ext; sa = i.sa; sb = i.sb; sc = i.sc } :: rest
      | _ -> o :: acc)
    dims []

(* Generic stride-walk contraction over the raw storage: a recursive
   loop nest over the output dimensions then the summation dimensions,
   maintaining flat offsets incrementally. It runs the shapes with no
   (M,N,K) form (full reductions, and an innermost output dimension
   carried by both operands), and it is the oracle: the GEMM path
   accumulates each output cell in exactly this order, so walk and GEMM
   agree bit-for-bit on the same canonicalized dimension lists. *)
let walk ~out_dims ~sum_dims (da : Dense.buf) (db : Dense.buf)
    (dc : Dense.buf) oa0 ob0 oc0 =
  let od = Array.of_list out_dims and sd = Array.of_list sum_dims in
  let no = Array.length od and ns = Array.length sd in
  let rec go_sum d oa ob oc =
    if d = ns - 1 then begin
      let { ext; sa; sb; _ } = Array.unsafe_get sd d in
      for k = 0 to ext - 1 do
        A1.unsafe_set dc oc
          (A1.unsafe_get dc oc
          +. A1.unsafe_get da (oa + (k * sa)) *. A1.unsafe_get db (ob + (k * sb))
          )
      done
    end
    else begin
      let { ext; sa; sb; _ } = Array.unsafe_get sd d in
      for k = 0 to ext - 1 do
        go_sum (d + 1) (oa + (k * sa)) (ob + (k * sb)) oc
      done
    end
  in
  let rec go_out d oa ob oc =
    if d = no then
      if ns = 0 then
        A1.unsafe_set dc oc
          (A1.unsafe_get dc oc
          +. (A1.unsafe_get da oa *. A1.unsafe_get db ob))
      else go_sum 0 oa ob oc
    else begin
      let { ext; sa; sb; sc } = Array.unsafe_get od d in
      for i = 0 to ext - 1 do
        go_out (d + 1) (oa + (i * sa)) (ob + (i * sb)) (oc + (i * sc))
      done
    end
  in
  go_out 0 oa0 ob0 oc0

(* ------------------------------------------------------------------ *)
(* Per-domain scratch: packed panels and flat offset tables. Grow-only,
   reused across calls, domain-local so concurrent Multicore ranks
   never share a panel. [bp] holds a KC strip's B panel across the
   row-block calls of one contract_acc (see [gemm_driver]).           *)
(* ------------------------------------------------------------------ *)

type scratch = {
  mutable ap : Dense.buf; (* packed A micro-panels *)
  mutable bp : Dense.buf; (* packed B micro-panels of the current strip *)
  mutable cp : Dense.buf; (* gathered C block *)
  mutable ma : int array; (* M-group offsets into A *)
  mutable mcf : int array; (* M-group offsets into C *)
  mutable nb : int array; (* N-group offsets into B *)
  mutable ncf : int array; (* N-group offsets into C *)
  mutable ka : int array; (* K-group offsets into A *)
  mutable kb : int array; (* K-group offsets into B *)
}

let panel n : Dense.buf = A1.create Bigarray.Float64 Bigarray.C_layout n

let scratch_key =
  Domain.DLS.new_key (fun () ->
      {
        ap = panel 0;
        bp = panel 0;
        cp = panel 0;
        ma = [||];
        mcf = [||];
        nb = [||];
        ncf = [||];
        ka = [||];
        kb = [||];
      })

let grow_b (buf : Dense.buf) n = if A1.dim buf >= n then buf else panel n
let grow_i arr n = if Array.length arr >= n then arr else Array.make n 0

(* Fill [tbl.(0 .. prod ext - 1)] with the row-major flat-offset table of
   [dims] against the strides selected by [which]. *)
let fill_offsets tbl dims which =
  let nd = Array.length dims in
  let k = ref 0 in
  let rec go d base =
    if d = nd then begin
      Array.unsafe_set tbl !k base;
      incr k
    end
    else begin
      let dm = Array.unsafe_get dims d in
      let s = which dm in
      for x = 0 to dm.ext - 1 do
        go (d + 1) (base + (x * s))
      done
    end
  in
  go 0 0

let prod dims = Array.fold_left (fun acc d -> acc * d.ext) 1 dims

(* ------------------------------------------------------------------ *)
(* GEMM driver                                                         *)
(* ------------------------------------------------------------------ *)

(* One (MC, NC, KC) block of the GEMM path, in gemm_stubs.c: when the
   flag is set, packs columns [jc, jc + nw) of B through [nb]/[kb] into
   the [bp] micro-panels; gathers the block's C cells through
   [mcf]/[ncf] into [cp]; packs rows [ic, ic + mw) of A through
   [ma]/[ka] into [ap], both over summation steps [pc, pc + kw); runs
   the tile of the last argument's width over the panels; and scatters
   [cp] back into C. *)
external gemm_block :
  Dense.buf ->
  Dense.buf ->
  Dense.buf ->
  Dense.buf ->
  Dense.buf ->
  Dense.buf ->
  int array ->
  int array ->
  int array ->
  int array ->
  int array ->
  int array ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  (int[@untagged]) ->
  bool ->
  (int[@untagged]) ->
  unit = "tce_gemm_block_byte" "tce_gemm_block"
[@@noalloc]

(* GEMM path: pack-and-tile over (M, N, K) index groups, with any
   batch dimensions walked outside, in the BLIS loop order: NC column
   block, then KC strip, then MC row block, one [gemm_block] call per
   block. A strip's first row block packs its B panel into [bp], and
   the strip's later row blocks reuse it, so [bp] carries state from
   one call to the next: two systhreads must not share a domain's
   scratch in the middle of a [contract_acc] (no caller does). Each
   call gathers and scatters its own C block, so a cell's running sum
   passes through C's storage unchanged between strips and keeps
   accumulating in ascending K, exactly like the walk. Offset tables
   linearize the multi-dimensional groups so arbitrary strides —
   noncoalescible layouts included — all run the same register tile. *)
let gemm_driver st (abuf : Dense.buf) (bbuf : Dense.buf) (cbuf : Dense.buf)
    ~abase ~bbase ~cbase ~msz ~nsz ~ksz =
  let w = !lanes in
  let jc = ref 0 in
  while !jc < nsz do
    let nw = min nc (nsz - !jc) in
    let pc = ref 0 in
    while !pc < ksz do
      let kw = min kc (ksz - !pc) in
      let ic = ref 0 in
      while !ic < msz do
        let mw = min mc (msz - !ic) in
        gemm_block abuf bbuf cbuf st.ap st.bp st.cp st.ma st.ka st.mcf st.nb
          st.kb st.ncf abase bbase cbase !ic !jc !pc mw nw kw (!ic = 0) w;
        ic := !ic + mw
      done;
      pc := !pc + kw
    done;
    jc := !jc + nw
  done

(* ------------------------------------------------------------------ *)
(* Entry point                                                         *)
(* ------------------------------------------------------------------ *)

let remove_phys x lst =
  let rec go = function
    | [] -> []
    | d :: rest -> if d == x then rest else d :: go rest
  in
  go lst

(* Replicates the historical inner-K choice of the register-tiled path:
   the summation dimension with the smallest A-side stride (best
   locality in the K loop) moves to the innermost position; the rest
   keep their row-major order outside it. Bit-compatibility with every
   pre-packing result depends on reproducing this exact fold. *)
let kd_reorder sum_dims =
  match sum_dims with
  | [] | [ _ ] -> sum_dims
  | _ ->
    let kd =
      let best =
        List.fold_left
          (fun acc d ->
            match acc with
            | None -> Some d
            | Some b ->
              if d.sa <> 0 && (b.sa = 0 || d.sa < b.sa) then Some d else acc)
          None sum_dims
      in
      Option.get best
    in
    remove_phys kd sum_dims @ [ kd ]

(* [kd_reorder]'s summation order, chosen on the layout [copy] and laid
   out on the dimensions [own] (aligned with [copy], extents equal): the
   runs that [coalesce] merges on [copy] move as wholes, then [own]
   coalesces on its own strides. A window breaks runs that its block
   copy would merge, and the order must not depend on that, or windows
   would sum in another order than copies. With [copy = own] this is
   [kd_reorder (coalesce own)], dimension for dimension. *)
let kd_order ~own ~copy =
  let rec runs own = function
    | [] -> []
    | (g : dim) :: gs ->
      (* A run's extents multiply to its merged extent, each above 1. *)
      let rec take n run = function
        | d :: rest when n < g.ext -> take (n * d.ext) (d :: run) rest
        | rest -> (List.rev run, rest)
      in
      let run, rest = take 1 [] own in
      (g, run) :: runs rest gs
  in
  let runs = runs own (coalesce copy) in
  kd_reorder (List.map fst runs)
  |> List.concat_map (fun g -> List.assq g runs)
  |> coalesce

let contract_acc ?(pin_out = []) ?(pin_a = []) ?(pin_b = []) ?(win_out = [])
    ?(win_a = []) ?(win_b = []) ~into a b =
  let cbase, cvis = apply_pins into ~pins:pin_out ~wins:win_out in
  let abase, avis = apply_pins a ~pins:pin_a ~wins:win_a in
  let bbase, bvis = apply_pins b ~pins:pin_b ~wins:win_b in
  let find vis l = List.find_opt (fun (l', _, _, _) -> Index.equal l l') vis in
  (* Each dimension twice: with its strides, and with those it would
     have in the windows' block copies. *)
  let dims (l, ext, sc, cc) =
    let strides vis =
      match find vis l with
      | Some (_, e, s, c) ->
        if e <> ext then
          fail "Kernel.contract_acc: extent mismatch on label %s"
            (Index.name l);
        (s, c)
      | None -> (0, 0)
    in
    let sa, ca = strides avis and sb, cb = strides bvis in
    ({ ext; sa; sb; sc }, { ext; sa = ca; sb = cb; sc = cc })
  in
  let out =
    List.map
      (fun ((l, _, _, _) as v) ->
        let ((d, _) as twins) = dims v in
        if d.sa = 0 && d.sb = 0 then
          fail "Kernel.contract_acc: output label %s absent from both operands"
            (Index.name l);
        twins)
      cvis
  in
  let summed l = find cvis l = None in
  let sum_a = List.filter (fun (l, _, _, _) -> summed l) avis in
  let sum_b =
    List.filter (fun (l, _, _, _) -> summed l && find avis l = None) bvis
  in
  let sum =
    List.map (fun (l, ext, _, _) -> dims (l, ext, 0, 0)) (sum_a @ sum_b)
  in
  let out_dims = coalesce (drop_unit (List.map fst out)) in
  let out_copy = drop_unit (List.map snd out) in
  let sum_fine = drop_unit (List.map fst sum) in
  let sum_copy = drop_unit (List.map snd sum) in
  let sum_dims = coalesce sum_fine in
  let da = Dense.buf a and db = Dense.buf b and dc = Dense.buf into in
  (* Path selection, on the innermost output dimension. Carried by
     exactly one operand at unit C stride, it makes an (M,N,K) form:
     GEMM runs with that operand on the B side, summing in [kd_order],
     the historical accumulation order. Both are decided on the
     windows' block-copy strides, so a window sums every cell in its
     copy's order. With no output dimension, or an innermost one that
     both operands carry at a unit C stride of its own, no (M,N,K) form
     exists and the walk runs; at any other C stride GEMM runs with the
     batch dimensions walked outside the block. These two sum in
     row-major order, which coalescing leaves unchanged. *)
  let swap d = { d with sa = d.sb; sb = d.sa } in
  let path, flipped, sum_ordered =
    match List.rev out_copy with
    | [] -> (Walk, false, sum_dims)
    | jd :: _ when jd.sc = 1 && jd.sa = 0 && jd.sb <> 0 ->
      (Gemm, false, kd_order ~own:sum_fine ~copy:sum_copy)
    | jd :: _ when jd.sc = 1 && jd.sb = 0 && jd.sa <> 0 ->
      ( Gemm,
        true,
        kd_order ~own:(List.map swap sum_fine) ~copy:(List.map swap sum_copy) )
    | _ -> (
      match List.rev out_dims with
      | jd :: _ when jd.sc = 1 -> (Walk, false, sum_dims)
      | _ -> (Gemm, false, sum_dims))
  in
  (* When flipped the operands are swapped (a contraction is symmetric
     in A·B) so the innermost output dimension is always on the B side;
     the walk oracle sees the flipped strides too. *)
  let out_eff = if flipped then List.map swap out_dims else out_dims in
  let da, db, abase, bbase =
    if flipped then (db, da, bbase, abase) else (da, db, abase, bbase)
  in
  let path = if !walk_oracle then Walk else path in
  last := path;
  (match path with
  | Walk ->
    walk ~out_dims:out_eff ~sum_dims:sum_ordered da db dc abase bbase cbase
  | Gemm ->
    let st = Domain.DLS.get scratch_key in
    let ksz = List.fold_left (fun acc d -> acc * d.ext) 1 sum_ordered in
    let sumd = Array.of_list sum_ordered in
    st.ka <- grow_i st.ka ksz;
    st.kb <- grow_i st.kb ksz;
    fill_offsets st.ka sumd (fun d -> d.sa);
    fill_offsets st.kb sumd (fun d -> d.sb);
    (* Partition the (effective) output dimensions into the M group
       (A-and-C), N group (B-and-C) and batch group (all three). *)
    let m_dims =
      Array.of_list (List.filter (fun d -> d.sa <> 0 && d.sb = 0) out_eff)
    in
    let n_dims = Array.of_list (List.filter (fun d -> d.sa = 0) out_eff) in
    let h_dims =
      Array.of_list (List.filter (fun d -> d.sa <> 0 && d.sb <> 0) out_eff)
    in
    let msz = prod m_dims and nsz = prod n_dims in
    st.ma <- grow_i st.ma msz;
    st.mcf <- grow_i st.mcf msz;
    fill_offsets st.ma m_dims (fun d -> d.sa);
    fill_offsets st.mcf m_dims (fun d -> d.sc);
    st.nb <- grow_i st.nb nsz;
    st.ncf <- grow_i st.ncf nsz;
    fill_offsets st.nb n_dims (fun d -> d.sb);
    fill_offsets st.ncf n_dims (fun d -> d.sc);
    st.ap <- grow_b st.ap (min mc msz * min kc ksz);
    st.bp <- grow_b st.bp (min kc ksz * min nc nsz);
    st.cp <- grow_b st.cp (min mc msz * min nc nsz);
    let nh = Array.length h_dims in
    let rec go d oa ob oc =
      if d = nh then
        gemm_driver st da db dc ~abase:oa ~bbase:ob ~cbase:oc ~msz ~nsz ~ksz
      else begin
        let { ext; sa; sb; sc } = Array.unsafe_get h_dims d in
        for x = 0 to ext - 1 do
          go (d + 1) (oa + (x * sa)) (ob + (x * sb)) (oc + (x * sc))
        done
      end
    in
    go 0 abase bbase cbase);
  if Obs.enabled () then begin
    Obs.count
      (match path with
      | Walk -> "kernel.fallback"
      | Gemm -> "kernel.microkernel");
    let dims_product = List.fold_left (fun acc d -> acc * d.ext) 1 in
    Obs.count
      ~by:(2 * dims_product out_dims * dims_product sum_dims)
      "kernel.flops"
  end
