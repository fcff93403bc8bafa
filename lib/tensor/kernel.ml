open! Import
module A1 = Bigarray.Array1

(* One dimension of the joint iteration space of [C(out) += Σ A·B]: its
   extent and the stride it contributes to each tensor's flat offset
   (0 when the tensor does not carry the label). [sc = 0] marks a
   summation dimension. Classifying by stride pattern instead of label
   sets means Hadamard/batch dimensions (present everywhere), M/N-like
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

(* Hadamard-flavor row width: the contiguous innermost-output strip
   processed per packed B panel. *)
let hb = 512

(* Hadamard-flavor summation strip. Much shorter than the GEMM [kc]:
   A is read in place (each element feeds exactly one MAC, so packing
   it would only add traffic), which means the packed B panel must
   share L1 with the streamed A rows — [hkc * hb] panel elements plus
   [hkc] live A cache lines per leaf. 16 measures fastest on the
   noncoalescible bench case across {8, 16, 32, 48, 256}. *)
let hkc = 16

let blocking () = (kc, mc, nc)

type path = Gemm | Hadamard | Dot | Walk

let last = ref Walk
let last_path () = !last
let last_used_microkernel () = !last <> Walk

let last_used_packed () =
  match !last with Gemm | Hadamard -> true | Dot | Walk -> false

(* Debug oracle: route every contraction through the generic stride walk
   (on the very same canonicalized dimension lists the production
   kernels use), so tests can assert pack-path == walk bit-for-bit. *)
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

(* Generic stride-walk contraction over the raw storage, kept verbatim
   from the pre-packing kernel as the debug oracle: a recursive loop nest
   over the output dimensions then the summation dimensions, maintaining
   flat offsets incrementally. Every packed path below accumulates each
   output cell in exactly this order, so walk and pack agree bit-for-bit
   on the same canonicalized dimension lists. *)
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
(* Per-domain scratch: packed panels, register-tile spill cells, and
   flat offset tables. Grow-only, reused across calls, domain-local so
   concurrent Multicore ranks never share a panel.                     *)
(* ------------------------------------------------------------------ *)

type scratch = {
  mutable ap : Dense.buf; (* packed A micro-panels *)
  mutable bp : Dense.buf; (* packed B micro-panels; Hadamard's B panel *)
  mutable cp : Dense.buf; (* gathered C block *)
  acc : float array; (* Hadamard/Dot register-tile spill cells *)
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
        acc = Array.make 8 0.0;
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
(* Flavor drivers                                                      *)
(* ------------------------------------------------------------------ *)

(* One (MC, NC, KC) block of the GEMM flavor, in gemm_stubs.c: packs
   rows [ic, ic + mw) of A through [ma] and columns [jc, jc + nw) of B
   through [nb], both over summation steps [pc, pc + kw) through
   [ka]/[kb], into the [ap]/[bp] micro-panels, then accumulates their
   product into the gathered C block [cp] (row stride [nw]) on the tile
   of the last argument's width. *)
external gemm_block :
  Dense.buf ->
  Dense.buf ->
  Dense.buf ->
  Dense.buf ->
  Dense.buf ->
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
  unit = "tce_gemm_block_byte" "tce_gemm_block"
[@@noalloc]

(* GEMM flavor: pack-and-tile over (M, N, K) index groups, with any
   batch (Hadamard) dimensions walked outside. For each (MC, NC) block
   of C: gather the block into the contiguous [cp] panel (so later
   K strips keep accumulating on the caller's initial values, exactly
   like the walk), then per KC strip make one [gemm_block] call, which
   packs the A and B micro-panels and runs the register tile; finally
   scatter the packed block back. Offset tables linearize the
   multi-dimensional groups so arbitrary strides — including the
   noncoalescible layouts that used to fall back to the stride walk —
   all run the same register tile. *)
let gemm_driver st (abuf : Dense.buf) (bbuf : Dense.buf) (cbuf : Dense.buf)
    ~abase ~bbase ~cbase ~msz ~nsz ~ksz =
  let mcf = st.mcf and ncf = st.ncf and cp = st.cp in
  let w = !lanes in
  let ic = ref 0 in
  while !ic < msz do
    let mw = min mc (msz - !ic) in
    let jc = ref 0 in
    while !jc < nsz do
      let nw = min nc (nsz - !jc) in
      (* Gather the C block. *)
      for ii = 0 to mw - 1 do
        let co = cbase + Array.unsafe_get mcf (!ic + ii) in
        let r = ii * nw in
        for jj = 0 to nw - 1 do
          A1.unsafe_set cp (r + jj)
            (A1.unsafe_get cbuf (co + Array.unsafe_get ncf (!jc + jj)))
        done
      done;
      let pc = ref 0 in
      while !pc < ksz do
        let kw = min kc (ksz - !pc) in
        gemm_block abuf bbuf st.ap st.bp cp st.ma st.ka st.nb st.kb abase bbase
          !ic !jc !pc mw nw kw w;
        pc := !pc + kw
      done;
      (* Scatter the C block back. *)
      for ii = 0 to mw - 1 do
        let co = cbase + Array.unsafe_get mcf (!ic + ii) in
        let r = ii * nw in
        for jj = 0 to nw - 1 do
          A1.unsafe_set cbuf
            (co + Array.unsafe_get ncf (!jc + jj))
            (A1.unsafe_get cp (r + jj))
        done
      done;
      jc := !jc + nw
    done;
    ic := !ic + mw
  done

(* Hadamard flavor: the innermost output dimension [jd] is present in
   both operands (no (M,N,K) form exists), so tile it directly in
   [hb]-wide strips of the contiguous C row. The outer output dimensions
   split by stride pattern: those with a B stride ([rb_dims]) are walked
   outside the B-panel pack, the rest ([ra_dims]) are linearized through
   the M offset tables and register-tiled 2 leaves x 4 cells with the K
   loop unrolled by 4 — the microkernel shape. Per (strip, KC block,
   B-leaf) the B panel is packed once (K x strip, unit J stride) and
   reused across all [ra] leaves; A streams straight from storage
   because each of its elements feeds exactly one MAC — packing it would
   only double its traffic. Cells are independent and each cell's
   additions stay in ascending-K walk order (chained, left-associated),
   so the tiling reorders only the cell visiting order and the
   bit-identity contract with the walk oracle is untouched. *)
let hadamard_driver st (abuf : Dense.buf) (bbuf : Dense.buf)
    (cbuf : Dense.buf) ~abase ~bbase ~cbase ~(jd : dim) ~rb_dims ~ra_dims
    ~ksz =
  let ka = st.ka and kb = st.kb and ma = st.ma and mcf = st.mcf in
  let bp = st.bp and acc = st.acc in
  let saj = jd.sa and sbj = jd.sb in
  let nrb = Array.length rb_dims in
  let msz = prod ra_dims in
  let j0 = ref 0 in
  while !j0 < jd.ext do
    let jw = min hb (jd.ext - !j0) in
    let pc = ref 0 in
    while !pc < ksz do
      let kw = min hkc (ksz - !pc) in
      (* One row fragment of one leaf: cells [jj, jj+cn) accumulated in
         the spill cells [ci, ci+cn), plain ascending-K chain. *)
      let row_tail oa oc ~jj ~cn ~ci =
        for x = 0 to cn - 1 do
          Array.unsafe_set acc (ci + x)
            (A1.unsafe_get cbuf (oc + !j0 + jj + x))
        done;
        for t = 0 to kw - 1 do
          let ao = oa + Array.unsafe_get ka (!pc + t) + ((!j0 + jj) * saj) in
          let r = (t * jw) + jj in
          for x = 0 to cn - 1 do
            Array.unsafe_set acc (ci + x)
              (Array.unsafe_get acc (ci + x)
              +. (A1.unsafe_get abuf (ao + (x * saj))
                 *. A1.unsafe_get bp (r + x)))
          done
        done;
        for x = 0 to cn - 1 do
          A1.unsafe_set cbuf
            (oc + !j0 + jj + x)
            (Array.unsafe_get acc (ci + x))
        done
      in
      (* The 2x4 register tile: leaves at [oa0]/[oa1], cells
         [jj..jj+3], K unrolled by 4 with left-associated chains. *)
      let tile_gen oa0 oc0 oa1 oc1 ~jj =
        let c0 = oc0 + !j0 + jj and c1 = oc1 + !j0 + jj in
        Array.unsafe_set acc 0 (A1.unsafe_get cbuf c0);
        Array.unsafe_set acc 1 (A1.unsafe_get cbuf (c0 + 1));
        Array.unsafe_set acc 2 (A1.unsafe_get cbuf (c0 + 2));
        Array.unsafe_set acc 3 (A1.unsafe_get cbuf (c0 + 3));
        Array.unsafe_set acc 4 (A1.unsafe_get cbuf c1);
        Array.unsafe_set acc 5 (A1.unsafe_get cbuf (c1 + 1));
        Array.unsafe_set acc 6 (A1.unsafe_get cbuf (c1 + 2));
        Array.unsafe_set acc 7 (A1.unsafe_get cbuf (c1 + 3));
        let jb = (!j0 + jj) * saj in
        let p0 = oa0 + jb and q0 = oa1 + jb in
        let t = ref 0 in
        while !t + 3 < kw do
          let k0 = Array.unsafe_get ka (!pc + !t)
          and k1 = Array.unsafe_get ka (!pc + !t + 1)
          and k2 = Array.unsafe_get ka (!pc + !t + 2)
          and k3 = Array.unsafe_get ka (!pc + !t + 3) in
          let r0 = (!t * jw) + jj in
          let r1 = r0 + jw and r2 = r0 + (2 * jw) and r3 = r0 + (3 * jw) in
          for x = 0 to 3 do
            let s = x * saj in
            let b0 = A1.unsafe_get bp (r0 + x)
            and b1 = A1.unsafe_get bp (r1 + x)
            and b2 = A1.unsafe_get bp (r2 + x)
            and b3 = A1.unsafe_get bp (r3 + x) in
            Array.unsafe_set acc x
              ((((Array.unsafe_get acc x
                 +. (A1.unsafe_get abuf (p0 + k0 + s) *. b0))
                +. (A1.unsafe_get abuf (p0 + k1 + s) *. b1))
               +. (A1.unsafe_get abuf (p0 + k2 + s) *. b2))
              +. (A1.unsafe_get abuf (p0 + k3 + s) *. b3));
            Array.unsafe_set acc (4 + x)
              ((((Array.unsafe_get acc (4 + x)
                 +. (A1.unsafe_get abuf (q0 + k0 + s) *. b0))
                +. (A1.unsafe_get abuf (q0 + k1 + s) *. b1))
               +. (A1.unsafe_get abuf (q0 + k2 + s) *. b2))
              +. (A1.unsafe_get abuf (q0 + k3 + s) *. b3))
          done;
          t := !t + 4
        done;
        while !t < kw do
          let k0 = Array.unsafe_get ka (!pc + !t) in
          let r0 = (!t * jw) + jj in
          let pk = p0 + k0 and qk = q0 + k0 in
          for x = 0 to 3 do
            let s = x * saj in
            let b = A1.unsafe_get bp (r0 + x) in
            Array.unsafe_set acc x
              (Array.unsafe_get acc x +. (A1.unsafe_get abuf (pk + s) *. b));
            Array.unsafe_set acc (4 + x)
              (Array.unsafe_get acc (4 + x)
              +. (A1.unsafe_get abuf (qk + s) *. b))
          done;
          incr t
        done;
        A1.unsafe_set cbuf c0 (Array.unsafe_get acc 0);
        A1.unsafe_set cbuf (c0 + 1) (Array.unsafe_get acc 1);
        A1.unsafe_set cbuf (c0 + 2) (Array.unsafe_get acc 2);
        A1.unsafe_set cbuf (c0 + 3) (Array.unsafe_get acc 3);
        A1.unsafe_set cbuf c1 (Array.unsafe_get acc 4);
        A1.unsafe_set cbuf (c1 + 1) (Array.unsafe_get acc 5);
        A1.unsafe_set cbuf (c1 + 2) (Array.unsafe_get acc 6);
        A1.unsafe_set cbuf (c1 + 3) (Array.unsafe_get acc 7)
      in
      (* Unit-J-stride specialization of [tile_gen]: A cells for one K
         row are contiguous, so the cell loop is fully unrolled into
         constant offsets (no per-cell stride multiply). Term order in
         every chain is identical to [tile_gen]. *)
      let tile_u1 oa0 oc0 oa1 oc1 ~jj =
        let c0 = oc0 + !j0 + jj and c1 = oc1 + !j0 + jj in
        Array.unsafe_set acc 0 (A1.unsafe_get cbuf c0);
        Array.unsafe_set acc 1 (A1.unsafe_get cbuf (c0 + 1));
        Array.unsafe_set acc 2 (A1.unsafe_get cbuf (c0 + 2));
        Array.unsafe_set acc 3 (A1.unsafe_get cbuf (c0 + 3));
        Array.unsafe_set acc 4 (A1.unsafe_get cbuf c1);
        Array.unsafe_set acc 5 (A1.unsafe_get cbuf (c1 + 1));
        Array.unsafe_set acc 6 (A1.unsafe_get cbuf (c1 + 2));
        Array.unsafe_set acc 7 (A1.unsafe_get cbuf (c1 + 3));
        let jb = !j0 + jj in
        let p0 = oa0 + jb and q0 = oa1 + jb in
        let dq = q0 - p0 in
        let t = ref 0 in
        while !t + 3 < kw do
          let pk0 = p0 + Array.unsafe_get ka (!pc + !t)
          and pk1 = p0 + Array.unsafe_get ka (!pc + !t + 1)
          and pk2 = p0 + Array.unsafe_get ka (!pc + !t + 2)
          and pk3 = p0 + Array.unsafe_get ka (!pc + !t + 3) in
          let qk0 = pk0 + dq and qk1 = pk1 + dq in
          let qk2 = pk2 + dq and qk3 = pk3 + dq in
          let r0 = (!t * jw) + jj in
          let r1 = r0 + jw and r2 = r0 + (2 * jw) and r3 = r0 + (3 * jw) in
          Array.unsafe_set acc 0 @@
            (((Array.unsafe_get acc 0 +. (A1.unsafe_get abuf pk0 *. A1.unsafe_get bp r0))
             +. (A1.unsafe_get abuf pk1 *. A1.unsafe_get bp r1))
            +. (A1.unsafe_get abuf pk2 *. A1.unsafe_get bp r2))
            +. (A1.unsafe_get abuf pk3 *. A1.unsafe_get bp r3);
          Array.unsafe_set acc 1 @@
            (((Array.unsafe_get acc 1 +. (A1.unsafe_get abuf (pk0 + 1) *. A1.unsafe_get bp (r0 + 1)))
             +. (A1.unsafe_get abuf (pk1 + 1) *. A1.unsafe_get bp (r1 + 1)))
            +. (A1.unsafe_get abuf (pk2 + 1) *. A1.unsafe_get bp (r2 + 1)))
            +. (A1.unsafe_get abuf (pk3 + 1) *. A1.unsafe_get bp (r3 + 1));
          Array.unsafe_set acc 2 @@
            (((Array.unsafe_get acc 2 +. (A1.unsafe_get abuf (pk0 + 2) *. A1.unsafe_get bp (r0 + 2)))
             +. (A1.unsafe_get abuf (pk1 + 2) *. A1.unsafe_get bp (r1 + 2)))
            +. (A1.unsafe_get abuf (pk2 + 2) *. A1.unsafe_get bp (r2 + 2)))
            +. (A1.unsafe_get abuf (pk3 + 2) *. A1.unsafe_get bp (r3 + 2));
          Array.unsafe_set acc 3 @@
            (((Array.unsafe_get acc 3 +. (A1.unsafe_get abuf (pk0 + 3) *. A1.unsafe_get bp (r0 + 3)))
             +. (A1.unsafe_get abuf (pk1 + 3) *. A1.unsafe_get bp (r1 + 3)))
            +. (A1.unsafe_get abuf (pk2 + 3) *. A1.unsafe_get bp (r2 + 3)))
            +. (A1.unsafe_get abuf (pk3 + 3) *. A1.unsafe_get bp (r3 + 3));
          Array.unsafe_set acc 4 @@
            (((Array.unsafe_get acc 4 +. (A1.unsafe_get abuf qk0 *. A1.unsafe_get bp r0))
             +. (A1.unsafe_get abuf qk1 *. A1.unsafe_get bp r1))
            +. (A1.unsafe_get abuf qk2 *. A1.unsafe_get bp r2))
            +. (A1.unsafe_get abuf qk3 *. A1.unsafe_get bp r3);
          Array.unsafe_set acc 5 @@
            (((Array.unsafe_get acc 5 +. (A1.unsafe_get abuf (qk0 + 1) *. A1.unsafe_get bp (r0 + 1)))
             +. (A1.unsafe_get abuf (qk1 + 1) *. A1.unsafe_get bp (r1 + 1)))
            +. (A1.unsafe_get abuf (qk2 + 1) *. A1.unsafe_get bp (r2 + 1)))
            +. (A1.unsafe_get abuf (qk3 + 1) *. A1.unsafe_get bp (r3 + 1));
          Array.unsafe_set acc 6 @@
            (((Array.unsafe_get acc 6 +. (A1.unsafe_get abuf (qk0 + 2) *. A1.unsafe_get bp (r0 + 2)))
             +. (A1.unsafe_get abuf (qk1 + 2) *. A1.unsafe_get bp (r1 + 2)))
            +. (A1.unsafe_get abuf (qk2 + 2) *. A1.unsafe_get bp (r2 + 2)))
            +. (A1.unsafe_get abuf (qk3 + 2) *. A1.unsafe_get bp (r3 + 2));
          Array.unsafe_set acc 7 @@
            (((Array.unsafe_get acc 7 +. (A1.unsafe_get abuf (qk0 + 3) *. A1.unsafe_get bp (r0 + 3)))
             +. (A1.unsafe_get abuf (qk1 + 3) *. A1.unsafe_get bp (r1 + 3)))
            +. (A1.unsafe_get abuf (qk2 + 3) *. A1.unsafe_get bp (r2 + 3)))
            +. (A1.unsafe_get abuf (qk3 + 3) *. A1.unsafe_get bp (r3 + 3));
          t := !t + 4
        done;
        while !t < kw do
          let pk = p0 + Array.unsafe_get ka (!pc + !t) in
          let qk = pk + dq in
          let r0 = (!t * jw) + jj in
          Array.unsafe_set acc 0 @@ Array.unsafe_get acc 0 +. (A1.unsafe_get abuf pk *. A1.unsafe_get bp r0);
          Array.unsafe_set acc 1 @@
            Array.unsafe_get acc 1
            +. (A1.unsafe_get abuf (pk + 1) *. A1.unsafe_get bp (r0 + 1));
          Array.unsafe_set acc 2 @@
            Array.unsafe_get acc 2
            +. (A1.unsafe_get abuf (pk + 2) *. A1.unsafe_get bp (r0 + 2));
          Array.unsafe_set acc 3 @@
            Array.unsafe_get acc 3
            +. (A1.unsafe_get abuf (pk + 3) *. A1.unsafe_get bp (r0 + 3));
          Array.unsafe_set acc 4 @@ Array.unsafe_get acc 4 +. (A1.unsafe_get abuf qk *. A1.unsafe_get bp r0);
          Array.unsafe_set acc 5 @@
            Array.unsafe_get acc 5
            +. (A1.unsafe_get abuf (qk + 1) *. A1.unsafe_get bp (r0 + 1));
          Array.unsafe_set acc 6 @@
            Array.unsafe_get acc 6
            +. (A1.unsafe_get abuf (qk + 2) *. A1.unsafe_get bp (r0 + 2));
          Array.unsafe_set acc 7 @@
            Array.unsafe_get acc 7
            +. (A1.unsafe_get abuf (qk + 3) *. A1.unsafe_get bp (r0 + 3));
          incr t
        done;
        A1.unsafe_set cbuf c0 (Array.unsafe_get acc 0);
        A1.unsafe_set cbuf (c0 + 1) (Array.unsafe_get acc 1);
        A1.unsafe_set cbuf (c0 + 2) (Array.unsafe_get acc 2);
        A1.unsafe_set cbuf (c0 + 3) (Array.unsafe_get acc 3);
        A1.unsafe_set cbuf c1 (Array.unsafe_get acc 4);
        A1.unsafe_set cbuf (c1 + 1) (Array.unsafe_get acc 5);
        A1.unsafe_set cbuf (c1 + 2) (Array.unsafe_get acc 6);
        A1.unsafe_set cbuf (c1 + 3) (Array.unsafe_get acc 7)
      in
      let tile = if saj = 1 then tile_u1 else tile_gen in
      let leaves oa oc =
        let m = ref 0 in
        while !m + 1 < msz do
          let oa0 = oa + Array.unsafe_get ma !m
          and oc0 = oc + Array.unsafe_get mcf !m
          and oa1 = oa + Array.unsafe_get ma (!m + 1)
          and oc1 = oc + Array.unsafe_get mcf (!m + 1) in
          let jj = ref 0 in
          while !jj + 3 < jw do
            tile oa0 oc0 oa1 oc1 ~jj:!jj;
            jj := !jj + 4
          done;
          if !jj < jw then begin
            row_tail oa0 oc0 ~jj:!jj ~cn:(jw - !jj) ~ci:0;
            row_tail oa1 oc1 ~jj:!jj ~cn:(jw - !jj) ~ci:4
          end;
          m := !m + 2
        done;
        if !m < msz then begin
          let oa0 = oa + Array.unsafe_get ma !m
          and oc0 = oc + Array.unsafe_get mcf !m in
          let jj = ref 0 in
          while !jj < jw do
            row_tail oa0 oc0 ~jj:!jj ~cn:(min 4 (jw - !jj)) ~ci:0;
            jj := !jj + 4
          done
        end
      in
      let rec go_rb d oa ob oc =
        if d = nrb then begin
          (* Pack the B panel once for this (strip, KC, B-leaf). *)
          for t = 0 to kw - 1 do
            let bo = ob + Array.unsafe_get kb (!pc + t) + (!j0 * sbj) in
            let r = t * jw in
            for jj = 0 to jw - 1 do
              A1.unsafe_set bp (r + jj)
                (A1.unsafe_get bbuf (bo + (jj * sbj)))
            done
          done;
          leaves oa oc
        end
        else begin
          let { ext; sa; sb; sc } = Array.unsafe_get rb_dims d in
          for x = 0 to ext - 1 do
            go_rb (d + 1) (oa + (x * sa)) (ob + (x * sb)) (oc + (x * sc))
          done
        end
      in
      go_rb 0 abase bbase cbase;
      pc := !pc + kw
    done;
    j0 := !j0 + jw
  done

(* Dot flavor: no surviving output dimensions — a single C cell. The
   summation space is linearized in walk (row-major) order and reduced
   with the same unrolled, left-associated chain. *)
let dot_driver st (abuf : Dense.buf) (bbuf : Dense.buf) (cbuf : Dense.buf)
    ~abase ~bbase ~cbase ~ksz =
  let ka = st.ka and kb = st.kb and acc = st.acc in
  Array.unsafe_set acc 0 (A1.unsafe_get cbuf cbase);
  let t = ref 0 in
  while !t + 3 < ksz do
    Array.unsafe_set acc 0
      ((((Array.unsafe_get acc 0
         +. A1.unsafe_get abuf (abase + Array.unsafe_get ka !t)
            *. A1.unsafe_get bbuf (bbase + Array.unsafe_get kb !t))
        +. A1.unsafe_get abuf (abase + Array.unsafe_get ka (!t + 1))
           *. A1.unsafe_get bbuf (bbase + Array.unsafe_get kb (!t + 1)))
       +. A1.unsafe_get abuf (abase + Array.unsafe_get ka (!t + 2))
          *. A1.unsafe_get bbuf (bbase + Array.unsafe_get kb (!t + 2)))
      +. A1.unsafe_get abuf (abase + Array.unsafe_get ka (!t + 3))
         *. A1.unsafe_get bbuf (bbase + Array.unsafe_get kb (!t + 3)));
    t := !t + 4
  done;
  while !t < ksz do
    Array.unsafe_set acc 0
      (Array.unsafe_get acc 0
      +. A1.unsafe_get abuf (abase + Array.unsafe_get ka !t)
         *. A1.unsafe_get bbuf (bbase + Array.unsafe_get kb !t));
    incr t
  done;
  A1.unsafe_set cbuf cbase (Array.unsafe_get acc 0)

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
  (* Flavor selection. The innermost output dimension (unit C stride
     whenever any survive coalescing) decides the canonical form; the
     summation order is chosen per flavor so each packed path reproduces
     the historical accumulation order bit-for-bit. Both are decided on
     the windows' block-copy strides, so a window sums every cell in its
     copy's order; the Hadamard driver also needs a unit C stride of its
     own, and without one the GEMM driver runs the same order. *)
  let swap d = { d with sa = d.sb; sb = d.sa } in
  let flavor, sum_ordered =
    match List.rev out_copy with
    | [] -> (`Dot, sum_dims)
    | jd :: _ when jd.sc = 1 && jd.sa = 0 && jd.sb <> 0 ->
      (`Gemm false, kd_order ~own:sum_fine ~copy:sum_copy)
    | jd :: _ when jd.sc = 1 && jd.sb = 0 && jd.sa <> 0 ->
      ( `Gemm true,
        kd_order ~own:(List.map swap sum_fine) ~copy:(List.map swap sum_copy) )
    | _ -> (
      match List.rev out_dims with
      | jd :: _ when jd.sc = 1 -> (`Hadamard jd, sum_dims)
      | _ -> (`Pinned_inner, sum_dims))
  in
  (* Under [`Gemm true] the operands are swapped (a contraction is
     symmetric in A·B) so the innermost output dimension is always on
     the B side; the walk oracle sees the flipped strides too. *)
  let flipped = match flavor with `Gemm true -> true | _ -> false in
  let out_eff =
    if flipped then List.map swap out_dims else out_dims
  in
  let da, db, abase, bbase =
    if flipped then (db, da, bbase, abase) else (da, db, abase, bbase)
  in
  if !walk_oracle then begin
    last := Walk;
    walk ~out_dims:out_eff ~sum_dims:sum_ordered da db dc abase bbase cbase
  end
  else begin
    let st = Domain.DLS.get scratch_key in
    let ksz = List.fold_left (fun acc d -> acc * d.ext) 1 sum_ordered in
    let sumd = Array.of_list sum_ordered in
    st.ka <- grow_i st.ka ksz;
    st.kb <- grow_i st.kb ksz;
    fill_offsets st.ka sumd (fun d -> d.sa);
    fill_offsets st.kb sumd (fun d -> d.sb);
    (match flavor with
    | `Dot ->
      last := Dot;
      dot_driver st da db dc ~abase ~bbase ~cbase ~ksz
    | `Hadamard jd ->
      last := Hadamard;
      let rest = remove_phys jd out_eff in
      let rb_dims = Array.of_list (List.filter (fun d -> d.sb <> 0) rest) in
      let ra_dims = Array.of_list (List.filter (fun d -> d.sb = 0) rest) in
      let msz = prod ra_dims in
      st.ma <- grow_i st.ma msz;
      st.mcf <- grow_i st.mcf msz;
      fill_offsets st.ma ra_dims (fun d -> d.sa);
      fill_offsets st.mcf ra_dims (fun d -> d.sc);
      st.bp <- grow_b st.bp (min hkc ksz * min hb jd.ext);
      hadamard_driver st da db dc ~abase ~bbase ~cbase ~jd ~rb_dims ~ra_dims
        ~ksz
    | `Gemm _ | `Pinned_inner ->
      (* Partition the (effective) output dimensions into the M group
         (A-and-C), N group (B-and-C) and batch group (all three). *)
      let m_dims =
        Array.of_list (List.filter (fun d -> d.sa <> 0 && d.sb = 0) out_eff)
      in
      let n_dims =
        Array.of_list (List.filter (fun d -> d.sa = 0) out_eff)
      in
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
      last := Gemm;
      st.ap <- grow_b st.ap (min mc msz * min kc ksz);
      st.bp <- grow_b st.bp (min kc ksz * min nc nsz);
      st.cp <- grow_b st.cp (min mc msz * min nc nsz);
      let nh = Array.length h_dims in
      let rec go d oa ob oc =
        if d = nh then
          gemm_driver st da db dc ~abase:oa ~bbase:ob ~cbase:oc ~msz ~nsz
            ~ksz
        else begin
          let { ext; sa; sb; sc } = Array.unsafe_get h_dims d in
          for x = 0 to ext - 1 do
            go (d + 1) (oa + (x * sa)) (ob + (x * sb)) (oc + (x * sc))
          done
        end
      in
      go 0 abase bbase cbase)
  end;
  if Obs.enabled () then begin
    Obs.count
      (match !last with
      | Walk -> "kernel.fallback"
      | Gemm | Hadamard | Dot -> "kernel.microkernel");
    let dims_product = List.fold_left (fun acc d -> acc * d.ext) 1 in
    Obs.count
      ~by:(2 * dims_product out_dims * dims_product sum_dims)
      "kernel.flops"
  end
