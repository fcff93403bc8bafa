/* The GEMM flavor's block kernel (Kernel.gemm_driver).

   One call computes one (MC, NC, KC) block of C += A·B, in four steps,
   all through the caller's flat offset tables: on the first row block
   of a KC strip (a flag argument) it packs B's kw × nw panel into
   micro-panels, which the strip's later row blocks reuse (the caller
   runs NC column blocks, then KC strips, then MC row blocks: the BLIS
   loop order); it gathers the block's C cells into a contiguous mw × nw
   buffer; it packs the block's A rows and sweeps a 4 × 2W register tile
   over the panels, where W is the vector width in doubles; and it
   scatters the buffer back into C. This file owns the panel format; the
   OCaml side only sizes the scratch, orders the blocks and picks W.

   Panel format. Row i of the block's A (i < mw) and summation step t
   (t < kw) live at ap[(i/MR)·kw·MR + t·mr + i mod MR], where mr = MR for
   a full micro-panel and mw mod MR for the narrower trailing one; B
   column j is packed the same way into NR-column micro-panels, NR = 2W.
   A tile therefore reads both operands contiguously, MR (NR) values per
   K step.

   One body, three widths. gemm_block.h holds the block kernel (packing,
   tile, half tile, scalar edge tile) once over W. The tile holds 4
   rows × 2W columns of C in eight W-lane accumulators (GCC/Clang
   generic vectors). A trailing column panel narrower than 2W but at
   least W wide runs its first W columns on the half tile, 4 rows × W in
   four accumulators, and only the rest, and trailing rows, on the
   scalar edge tile: at 8 lanes, N = 72 is four full panels and one half
   tile, with no scalar cell.
   It is instantiated at W = 2, the baseline vector width on x86-64
   (SSE2) and arm64 (NEON), built with no ISA flag; and, on x86-64 with
   GCC or Clang, at W = 4 under target("avx2") and W = 8 under
   target("avx512f"). tce_gemm_max_lanes reports the widest width the
   CPU and OS support (__builtin_cpu_supports also checks that the OS
   saves the YMM/ZMM state); Kernel reads it once and passes the width
   to every call. This file keeps no state of its own.

   Bits. Every C cell starts from its gathered C value and adds a·b in
   ascending K, the multiply and the add rounded separately, exactly as
   the stride walk does, at every width: a lane is one cell's chain, and
   the blocking decides only which cells a call visits. Between KC
   strips a cell's running sum is a double stored in C, unchanged. This
   holds only when the compiler neither contracts a·b + c into an FMA
   nor reassociates: the stub is built with -ffp-contract=off and never with
   -ffast-math (see lib/tensor/dune), and no target string names fma.

   The call neither allocates nor touches the OCaml heap beyond reading
   the offset tables, so it is declared [@@noalloc]; one call is one
   block, a few milliseconds at most, between OCaml safepoints (an OCaml
   5 minor collection stops every domain, so no call may run long). */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define MR 4

/* Offset [i] of an OCaml [int array]. */
#define OFF(tbl, i) Long_val(Field((tbl), (i)))

static inline intnat min_int(intnat x, intnat y) { return x < y ? x : y; }

#define W 2
#define GEMM_TARGET
#include "gemm_block.h"
#undef W
#undef GEMM_TARGET

#if defined(__x86_64__) && defined(__GNUC__)
#define GEMM_WIDE 1

#define W 4
#define GEMM_TARGET __attribute__((target("avx2")))
#include "gemm_block.h"
#undef W
#undef GEMM_TARGET

#define W 8
#define GEMM_TARGET __attribute__((target("avx512f")))
#include "gemm_block.h"
#undef W
#undef GEMM_TARGET
#endif

/* The widest tile width, in doubles, that this CPU and OS run. */
CAMLprim value tce_gemm_max_lanes(value unit)
{
  (void)unit;
#ifdef GEMM_WIDE
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx512f")) return Val_int(8);
  if (__builtin_cpu_supports("avx2")) return Val_int(4);
#endif
  return Val_int(2);
}

/* Block rows [ic, ic + mw), columns [jc, jc + nw) and summation steps
   [pc, pc + kw), on the tile of [lanes] lanes (at most
   tce_gemm_max_lanes). Element (i, t) of A is A[abase + ma[i] + ka[t]],
   element (t, j) of B is B[bbase + kb[t] + nb[j]] and cell (i, j) of C
   is C[cbase + mcf[i] + ncf[j]]. With [pack_b] the call packs B's
   kw × nw panel into bp; without it, bp still holds the panel of the
   strip's first row block. The block's C cells are gathered into cp
   (row stride nw) before the sweep and scattered back after it. ap, bp
   and cp must hold mw·kw, kw·nw and mw·nw values. */
CAMLprim value tce_gemm_block(value va, value vb, value vc, value vap,
                              value vbp, value vcp, value ma, value ka,
                              value mcf, value nb, value kb, value ncf,
                              intnat abase, intnat bbase, intnat cbase,
                              intnat ic, intnat jc, intnat pc, intnat mw,
                              intnat nw, intnat kw, value pack_b,
                              intnat lanes)
{
  const double *A = (const double *)Caml_ba_data_val(va) + abase;
  const double *B = (const double *)Caml_ba_data_val(vb) + bbase;
  double *C = (double *)Caml_ba_data_val(vc) + cbase;
  double *ap = (double *)Caml_ba_data_val(vap);
  double *bp = (double *)Caml_ba_data_val(vbp);
  double *cp = (double *)Caml_ba_data_val(vcp);
  int pack = Bool_val(pack_b);

  for (intnat i = 0; i < mw; i++) {
    const double *row = C + OFF(mcf, ic + i);
    double *dst = cp + i * nw;
    for (intnat j = 0; j < nw; j++) dst[j] = row[OFF(ncf, jc + j)];
  }

  switch (lanes) {
#ifdef GEMM_WIDE
  case 8:
    block_w8(A, B, ap, bp, cp, ma, ka, nb, kb, ic, jc, pc, mw, nw, kw, pack);
    break;
  case 4:
    block_w4(A, B, ap, bp, cp, ma, ka, nb, kb, ic, jc, pc, mw, nw, kw, pack);
    break;
#endif
  default:
    block_w2(A, B, ap, bp, cp, ma, ka, nb, kb, ic, jc, pc, mw, nw, kw, pack);
  }

  for (intnat i = 0; i < mw; i++) {
    double *row = C + OFF(mcf, ic + i);
    const double *src = cp + i * nw;
    for (intnat j = 0; j < nw; j++) row[OFF(ncf, jc + j)] = src[j];
  }
  return Val_unit;
}

CAMLprim value tce_gemm_block_byte(value *argv, int argn)
{
  (void)argn;
  return tce_gemm_block(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], argv[7], argv[8], argv[9], argv[10],
                        argv[11], Long_val(argv[12]), Long_val(argv[13]),
                        Long_val(argv[14]), Long_val(argv[15]),
                        Long_val(argv[16]), Long_val(argv[17]),
                        Long_val(argv[18]), Long_val(argv[19]),
                        Long_val(argv[20]), argv[21], Long_val(argv[22]));
}
