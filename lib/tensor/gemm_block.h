/* The GEMM block kernel over W lanes: micro-panel packing, the 4 × 2W
   register tile, the 4 × W half tile and the scalar edge tile.
   gemm_stubs.c includes this body once per lane count, with W (2, 4 or
   8) and GEMM_TARGET (empty, or a target attribute) defined, after MR,
   OFF and min_int; every name it defines carries the suffix _wW. The
   panel format and the bit contract are in the header comment of
   gemm_stubs.c. */

#define NR (2 * W)
#define GEMM_CAT_(f, w) f##_w##w
#define GEMM_CAT(f, w) GEMM_CAT_(f, w)
#define GEMM_NAME(f) GEMM_CAT(f, W)

typedef double GEMM_NAME(vec) __attribute__((vector_size(8 * W)));

static inline GEMM_TARGET GEMM_NAME(vec) GEMM_NAME(load)(const double *p)
{
  GEMM_NAME(vec) v;
  memcpy(&v, p, sizeof v);
  return v;
}

static inline GEMM_TARGET void GEMM_NAME(store)(double *p, GEMM_NAME(vec) v)
{
  memcpy(p, &v, sizeof v);
}

/* C[0..3][0..2W-1] (row stride ldc) += a-panel (4 × kw) · b-panel
   (kw × 2W), in eight W-lane accumulators. A scalar times a vector
   multiplies every lane by that scalar. */
static GEMM_TARGET void GEMM_NAME(tile)(intnat kw, const double *restrict a,
                                        const double *restrict b,
                                        double *restrict c, intnat ldc)
{
  double *c0 = c, *c1 = c + ldc, *c2 = c + 2 * ldc, *c3 = c + 3 * ldc;
  GEMM_NAME(vec) c00 = GEMM_NAME(load)(c0), c01 = GEMM_NAME(load)(c0 + W);
  GEMM_NAME(vec) c10 = GEMM_NAME(load)(c1), c11 = GEMM_NAME(load)(c1 + W);
  GEMM_NAME(vec) c20 = GEMM_NAME(load)(c2), c21 = GEMM_NAME(load)(c2 + W);
  GEMM_NAME(vec) c30 = GEMM_NAME(load)(c3), c31 = GEMM_NAME(load)(c3 + W);
  for (intnat t = 0; t < kw; t++) {
    GEMM_NAME(vec) b0 = GEMM_NAME(load)(b), b1 = GEMM_NAME(load)(b + W);
    c00 += a[0] * b0;
    c01 += a[0] * b1;
    c10 += a[1] * b0;
    c11 += a[1] * b1;
    c20 += a[2] * b0;
    c21 += a[2] * b1;
    c30 += a[3] * b0;
    c31 += a[3] * b1;
    a += MR;
    b += NR;
  }
  GEMM_NAME(store)(c0, c00);
  GEMM_NAME(store)(c0 + W, c01);
  GEMM_NAME(store)(c1, c10);
  GEMM_NAME(store)(c1 + W, c11);
  GEMM_NAME(store)(c2, c20);
  GEMM_NAME(store)(c2 + W, c21);
  GEMM_NAME(store)(c3, c30);
  GEMM_NAME(store)(c3 + W, c31);
}

/* The half tile: C[0..3][0..W-1] += a-panel (4 × kw) · the first W
   columns of a trailing b-panel of row stride ldb, in four W-lane
   accumulators. */
static GEMM_TARGET void GEMM_NAME(half)(intnat kw, const double *restrict a,
                                        const double *restrict b, intnat ldb,
                                        double *restrict c, intnat ldc)
{
  double *c0 = c, *c1 = c + ldc, *c2 = c + 2 * ldc, *c3 = c + 3 * ldc;
  GEMM_NAME(vec) c00 = GEMM_NAME(load)(c0), c10 = GEMM_NAME(load)(c1);
  GEMM_NAME(vec) c20 = GEMM_NAME(load)(c2), c30 = GEMM_NAME(load)(c3);
  for (intnat t = 0; t < kw; t++) {
    GEMM_NAME(vec) b0 = GEMM_NAME(load)(b);
    c00 += a[0] * b0;
    c10 += a[1] * b0;
    c20 += a[2] * b0;
    c30 += a[3] * b0;
    a += MR;
    b += ldb;
  }
  GEMM_NAME(store)(c0, c00);
  GEMM_NAME(store)(c1, c10);
  GEMM_NAME(store)(c2, c20);
  GEMM_NAME(store)(c3, c30);
}

/* The same product on mr × nr cells (mr ≤ MR, nr < NR or mr < MR) of a
   trailing panel, the a-panel of row stride mr, the b-panel of row
   stride ldb: scalar cells, the same ascending-K chain per cell. */
static GEMM_TARGET void GEMM_NAME(edge)(intnat kw, int mr, int nr,
                                        const double *restrict a,
                                        const double *restrict b, intnat ldb,
                                        double *restrict c, intnat ldc)
{
  double acc[MR][NR];
  for (int r = 0; r < mr; r++)
    for (int j = 0; j < nr; j++) acc[r][j] = c[r * ldc + j];
  for (intnat t = 0; t < kw; t++) {
    for (int r = 0; r < mr; r++)
      for (int j = 0; j < nr; j++) acc[r][j] += a[r] * b[j];
    a += mr;
    b += ldb;
  }
  for (int r = 0; r < mr; r++)
    for (int j = 0; j < nr; j++) c[r * ldc + j] = acc[r][j];
}

/* One block's packing and sweep: B's columns when [pack_b] (the panel
   then serves every row block of the strip), A's rows, then the tile
   over the gathered C block cp (row stride nw). The arguments are
   tce_gemm_block's, with the bases already applied. */
static GEMM_TARGET void GEMM_NAME(block)(const double *A, const double *B,
                                         double *ap, double *bp, double *cp,
                                         value ma, value ka, value nb,
                                         value kb, intnat ic, intnat jc,
                                         intnat pc, intnat mw, intnat nw,
                                         intnat kw, int pack_b)
{
  if (pack_b)
    for (intnat t = 0; t < kw; t++) {
      const double *src = B + OFF(kb, pc + t);
      for (intnat jp = 0; jp < nw; jp += NR) {
        int nr = (int)min_int(NR, nw - jp);
        double *dst = bp + jp * kw + t * nr;
        for (int j = 0; j < nr; j++) dst[j] = src[OFF(nb, jc + jp + j)];
      }
    }

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

  /* Column panels outer, row panels inner: the kw × NR B micro-panel
     stays in L1 while the A panels stream from L2. A trailing column
     panel of at least W columns runs its first W on the half tile. */
  for (intnat jp = 0; jp < nw; jp += NR) {
    int nr = (int)min_int(NR, nw - jp);
    const double *b = bp + jp * kw;
    for (intnat ip = 0; ip < mw; ip += MR) {
      int mr = (int)min_int(MR, mw - ip);
      const double *a = ap + ip * kw;
      double *c = cp + ip * nw + jp;
      if (mr < MR)
        GEMM_NAME(edge)(kw, mr, nr, a, b, nr, c, nw);
      else if (nr == NR)
        GEMM_NAME(tile)(kw, a, b, c, nw);
      else if (nr < W)
        GEMM_NAME(edge)(kw, MR, nr, a, b, nr, c, nw);
      else {
        GEMM_NAME(half)(kw, a, b, nr, c, nw);
        if (nr > W) GEMM_NAME(edge)(kw, MR, nr - W, a, b + W, nr, c + W, nw);
      }
    }
  }
}

#undef NR
#undef GEMM_CAT_
#undef GEMM_CAT
#undef GEMM_NAME
