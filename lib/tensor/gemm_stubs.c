/* The GEMM flavor's block kernel (Kernel.gemm_driver).

   One call computes one (MC, NC, KC) block of C += A·B. It packs the
   block's A rows and B columns into micro-panels through the caller's
   flat offset tables, then sweeps a 4 × 2W register tile over them,
   where W is the vector width in doubles. This file owns the panel
   format; the OCaml side only sizes the scratch, gathers/scatters the C
   block and picks W.

   Panel format. Row i of the block's A (i < mw) and summation step t
   (t < kw) live at ap[(i/MR)·kw·MR + t·mr + i mod MR], where mr = MR for
   a full micro-panel and mw mod MR for the narrower trailing one; B
   column j is packed the same way into NR-column micro-panels, NR = 2W.
   A tile therefore reads both operands contiguously, MR (NR) values per
   K step.

   One body, three widths. gemm_block.h holds the block kernel (packing,
   tile, scalar edge tile) once over W. The tile holds 4 rows × 2W
   columns of C in eight W-lane accumulators (GCC/Clang generic vectors).
   It is instantiated at W = 2, the baseline vector width on x86-64
   (SSE2) and arm64 (NEON), built with no ISA flag; and, on x86-64 with
   GCC or Clang, at W = 4 under target("avx2") and W = 8 under
   target("avx512f"). tce_gemm_max_lanes reports the widest width the
   CPU and OS support (__builtin_cpu_supports also checks that the OS
   saves the YMM/ZMM state); Kernel reads it once and passes the width
   to every call. This file keeps no state of its own.

   Bits. Every C cell starts from its packed C value and adds a·b in
   ascending K, the multiply and the add rounded separately, exactly as
   the stride walk does, at every width: a lane is one cell's chain, and
   the blocking decides only which cells a call visits. This holds only
   when the compiler neither contracts a·b + c into an FMA nor
   reassociates: the stub is built with -ffp-contract=off and never with
   -ffast-math (see lib/tensor/dune), and no target string names fma.

   The call neither allocates nor touches the OCaml heap beyond reading
   the offset tables, so it is declared [@@noalloc]; one call is one
   block, a few milliseconds at most, between OCaml safepoints. */

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
   element (t, j) of B is B[bbase + kb[t] + nb[j]]; cp is the gathered C
   block, row-major with stride nw. ap and bp must hold mw·kw and kw·nw
   values. */
CAMLprim value tce_gemm_block(value va, value vb, value vap, value vbp,
                              value vcp, value ma, value ka, value nb,
                              value kb, intnat abase, intnat bbase, intnat ic,
                              intnat jc, intnat pc, intnat mw, intnat nw,
                              intnat kw, intnat lanes)
{
  const double *A = (const double *)Caml_ba_data_val(va) + abase;
  const double *B = (const double *)Caml_ba_data_val(vb) + bbase;
  double *ap = (double *)Caml_ba_data_val(vap);
  double *bp = (double *)Caml_ba_data_val(vbp);
  double *cp = (double *)Caml_ba_data_val(vcp);

  switch (lanes) {
#ifdef GEMM_WIDE
  case 8:
    block_w8(A, B, ap, bp, cp, ma, ka, nb, kb, ic, jc, pc, mw, nw, kw);
    break;
  case 4:
    block_w4(A, B, ap, bp, cp, ma, ka, nb, kb, ic, jc, pc, mw, nw, kw);
    break;
#endif
  default:
    block_w2(A, B, ap, bp, cp, ma, ka, nb, kb, ic, jc, pc, mw, nw, kw);
  }
  return Val_unit;
}

CAMLprim value tce_gemm_block_byte(value *argv, int argn)
{
  (void)argn;
  return tce_gemm_block(argv[0], argv[1], argv[2], argv[3], argv[4], argv[5],
                        argv[6], argv[7], argv[8], Long_val(argv[9]),
                        Long_val(argv[10]), Long_val(argv[11]),
                        Long_val(argv[12]), Long_val(argv[13]),
                        Long_val(argv[14]), Long_val(argv[15]),
                        Long_val(argv[16]), Long_val(argv[17]));
}
