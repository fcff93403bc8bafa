/* The GEMM flavor's block kernel (Kernel.gemm_driver).

   One call computes one (MC, NC, KC) block of C += A·B. It packs the
   block's A rows and B columns into micro-panels through the caller's
   flat offset tables, then sweeps a 4×4 register tile over them. This
   file owns the panel format; the OCaml side only sizes the scratch and
   gathers/scatters the C block.

   Panel format. Row i of the block's A (i < mw) and summation step t
   (t < kw) live at ap[(i/MR)·kw·MR + t·mr + i mod MR], where mr = MR for
   a full micro-panel and mw mod MR for the narrower trailing one; B
   column j is packed the same way into NR-column micro-panels. A tile
   therefore reads both operands contiguously, MR (NR) values per K step.

   Vectors. The tile holds 4 rows × 4 columns of C in eight two-lane
   accumulators (GCC/Clang generic vectors of two doubles). Two lanes
   are the baseline vector width on x86-64 (SSE2) and arm64 (NEON), so
   the build needs no ISA flag and no runtime dispatch.

   Bits. Every C cell starts from its packed C value and adds a·b in
   ascending K, the multiply and the add rounded separately, exactly as
   the stride walk does. This holds only when the compiler neither
   contracts a·b + c into an FMA nor reassociates: the stub is built
   with -ffp-contract=off and never with -ffast-math (see lib/tensor/dune).

   The call neither allocates nor touches the OCaml heap beyond reading
   the offset tables, so it is declared [@@noalloc]; one call is one
   block, a few milliseconds at most, between OCaml safepoints. */

#include <string.h>
#include <caml/mlvalues.h>
#include <caml/bigarray.h>

#define MR 4
#define NR 4

typedef double v2d __attribute__((vector_size(16)));

static inline v2d load2(const double *p)
{
  v2d v;
  memcpy(&v, p, sizeof v);
  return v;
}

static inline void store2(double *p, v2d v) { memcpy(p, &v, sizeof v); }

/* Offset [i] of an OCaml [int array]. */
#define OFF(tbl, i) Long_val(Field((tbl), (i)))

/* C[0..3][0..3] (row stride ldc) += a-panel (4 × kw) · b-panel (kw × 4). */
static void tile(intnat kw, const double *restrict a, const double *restrict b,
                 double *restrict c, intnat ldc)
{
  double *c0 = c, *c1 = c + ldc, *c2 = c + 2 * ldc, *c3 = c + 3 * ldc;
  v2d c00 = load2(c0), c01 = load2(c0 + 2);
  v2d c10 = load2(c1), c11 = load2(c1 + 2);
  v2d c20 = load2(c2), c21 = load2(c2 + 2);
  v2d c30 = load2(c3), c31 = load2(c3 + 2);
  for (intnat t = 0; t < kw; t++) {
    v2d b0 = load2(b), b1 = load2(b + 2);
    v2d a0 = { a[0], a[0] }, a1 = { a[1], a[1] };
    v2d a2 = { a[2], a[2] }, a3 = { a[3], a[3] };
    c00 += a0 * b0;
    c01 += a0 * b1;
    c10 += a1 * b0;
    c11 += a1 * b1;
    c20 += a2 * b0;
    c21 += a2 * b1;
    c30 += a3 * b0;
    c31 += a3 * b1;
    a += MR;
    b += NR;
  }
  store2(c0, c00);
  store2(c0 + 2, c01);
  store2(c1, c10);
  store2(c1 + 2, c11);
  store2(c2, c20);
  store2(c2 + 2, c21);
  store2(c3, c30);
  store2(c3 + 2, c31);
}

/* The same product on a trailing mr × nr tile (mr ≤ MR, nr ≤ NR, one of
   them short): scalar cells, the same ascending-K chain per cell. */
static void edge(intnat kw, int mr, int nr, const double *restrict a,
                 const double *restrict b, double *restrict c, intnat ldc)
{
  double acc[MR][NR];
  for (int r = 0; r < mr; r++)
    for (int j = 0; j < nr; j++) acc[r][j] = c[r * ldc + j];
  for (intnat t = 0; t < kw; t++) {
    for (int r = 0; r < mr; r++)
      for (int j = 0; j < nr; j++) acc[r][j] += a[r] * b[j];
    a += mr;
    b += nr;
  }
  for (int r = 0; r < mr; r++)
    for (int j = 0; j < nr; j++) c[r * ldc + j] = acc[r][j];
}

static inline intnat min_int(intnat x, intnat y) { return x < y ? x : y; }

/* Block rows [ic, ic + mw), columns [jc, jc + nw) and summation steps
   [pc, pc + kw). Element (i, t) of A is A[abase + ma[i] + ka[t]], element
   (t, j) of B is B[bbase + kb[t] + nb[j]]; cp is the gathered C block,
   row-major with stride nw. ap and bp must hold mw·kw and kw·nw values. */
CAMLprim value tce_gemm_block(value va, value vb, value vap, value vbp,
                              value vcp, value ma, value ka, value nb,
                              value kb, intnat abase, intnat bbase, intnat ic,
                              intnat jc, intnat pc, intnat mw, intnat nw,
                              intnat kw)
{
  const double *A = (const double *)Caml_ba_data_val(va) + abase;
  const double *B = (const double *)Caml_ba_data_val(vb) + bbase;
  double *ap = (double *)Caml_ba_data_val(vap);
  double *bp = (double *)Caml_ba_data_val(vbp);
  double *cp = (double *)Caml_ba_data_val(vcp);

  for (intnat ip = 0; ip < mw; ip += MR) {
    int mr = (int)min_int(MR, mw - ip);
    const double *row[MR];
    for (int r = 0; r < mr; r++) row[r] = A + OFF(ma, ic + ip + r);
    double *dst = ap + ip * kw;
    for (intnat t = 0; t < kw; t++) {
      intnat k = OFF(ka, pc + t);
      for (int r = 0; r < mr; r++) dst[r] = row[r][k];
      dst += mr;
    }
  }

  for (intnat t = 0; t < kw; t++) {
    const double *src = B + OFF(kb, pc + t);
    for (intnat jp = 0; jp < nw; jp += NR) {
      int nr = (int)min_int(NR, nw - jp);
      double *dst = bp + jp * kw + t * nr;
      for (int j = 0; j < nr; j++) dst[j] = src[OFF(nb, jc + jp + j)];
    }
  }

  /* Column panels outer, row panels inner: the kw × NR B micro-panel
     stays in L1 while the A panels stream from L2. */
  for (intnat jp = 0; jp < nw; jp += NR) {
    int nr = (int)min_int(NR, nw - jp);
    const double *b = bp + jp * kw;
    for (intnat ip = 0; ip < mw; ip += MR) {
      int mr = (int)min_int(MR, mw - ip);
      const double *a = ap + ip * kw;
      double *c = cp + ip * nw + jp;
      if (mr == MR && nr == NR)
        tile(kw, a, b, c, nw);
      else
        edge(kw, mr, nr, a, b, c, nw);
    }
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
                        Long_val(argv[16]));
}
