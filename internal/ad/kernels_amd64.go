//go:build amd64

package ad

// Each f64 kernel below is bitwise equal to a named scalar reference,
// on every input. The band and axpy micro-kernels vectorize the hot
// inner loops of the band-fused matmul kernels with AVX2 and use
// separate VMULPD/VADDPD (never FMA): their reference is the scalar Go
// loop, which rounds twice per multiply-add, so with separate ops every
// SIMD lane performs exactly the scalar sequence
// out = (out + a0*b0) + a1*b1 on the same IEEE-754 doubles;
// TestBandKernelAVX2Bitwise and the kernel oracle enforce it. vexpFMA's
// reference is math.Exp, whose amd64 assembly fuses its multiply-adds
// under the same AVX+FMA gate, so it uses FMA exactly where math.Exp
// does (TestExpvMatchesMathExp). lstmCellAVX2's reference is the Go
// cell loop: its exponentials expand vexpFMA's own macro, and every
// other step rounds as the Go code does (FuzzLSTMCell).

// avxMinC is the minimum row width before the vector kernels pay for
// their call overhead; every model GEMM (gate, projection, vocabulary
// widths) is far above it.
const avxMinC = 8

// bandAVX2 runs the band step of matmul/matmulTN on a band of 1–4 rows
// of out (row r at o[r*c:]) for every pair of steps (p, p+1) with
// p+1 < k:
//
//	o_r[j] = (o_r[j] + a[r*rs+p*ps]*b[p*c+j]) + a[r*rs+(p+1)*ps]*b[(p+1)*c+j]
//
// It tests each pair's coefficients itself (−0 is zero, NaN is not) and
// runs a pair holding a zero row by row, each row skipping its zero
// steps. The odd-k tail step is left to the caller. The coefficients
// and outputs of rows past rows are never read.
//
//go:noescape
func bandAVX2(o, a, b *float64, rs, ps, c, k, rows int)

// axpyAVX2 computes o[j] += s*b[j] for j=0..n-1; s is nonzero.
//
//go:noescape
func axpyAVX2(o, b *float64, s float64, n int)

// ntPanelAVX2 is the 4x4 matmulNT micro-kernel over a packed panel
// (panel[4p+jj] = b_{j+jj}[p]): it computes the sixteen dot products
//
//	s[4*r+jj] = sum_p a_r[p] * panel[4p+jj]   r,jj = 0..3
//
// with separate VMULPD/VADDPD and one ascending-p accumulator chain per
// output element, so each SIMD lane reproduces the Go panel loop's
// s += av*v sequence bitwise. Accumulators start at zero; the caller
// adds s into out.
//
//go:noescape
func ntPanelAVX2(s *[16]float64, a0, a1, a2, a3, panel *float64, k int)

// vexpFMA fills o[i] = math.Exp(x[i]) four lanes at a time for i < n
// (n a multiple of 4) and returns how many it wrote: it stops before
// the first 4-element chunk holding a lane outside [-708, 709] or a
// NaN, leaving that chunk for the caller (expv). Each lane runs
// math.Exp's FMA path instruction for instruction; consts points at
// expConsts.
//
//go:noescape
func vexpFMA(o, x *float64, n int, consts *[104]float64) int

// lstmCellAVX2 computes hidden units 0..n-1 of one live row of
// lstmCellFused (n a multiple of 4, n <= H) into h and c, four units
// per vector, bitwise equal to the Go loop: its exponentials expand the
// same macro as vexpFMA, and every other value is rounded where the Go
// code rounds (VDIVPD, separate VMULPD/VADDPD, tanhExp's regimes as
// compare masks). x, w and b are the row's [4H] gate operands, cp its
// previous cell. It returns false, with h and c partly written, when a
// sigmoid's exp argument -z leaves [-708, 709] or is NaN; it reads
// nothing it writes, so the caller can recompute the row. FMA hosts
// only (useFMA), like vexpFMA.
//
//go:noescape
func lstmCellAVX2(h, c, x, w, b, cp *float64, n, H int, consts *[104]float64) bool

// The float32 kernels below serve the f32 inference tier
// (kernels_f32.go): 8-lane VFMADD231PS, one rounding per multiply-add
// where the training kernels above round twice. Unlike those kernels
// they are NOT bitwise-pinned to their pure-Go mirrors — the Go mirrors
// fuse through float64, which can double-round against hardware
// single-precision FMA on round-to-nearest ties — so asm and fallback
// are held together by ULP bounds (TestF32KernelsULPBound) instead.

// band2pFMA32 is a full band of bandAVX2's pair step in float32 with
// fused rounding, 8 lanes per vector:
//
//	o_r[j] = fma(av[4+r], bq[j], fma(av[r], bp[j], o_r[j]))   r=0..3
//
//go:noescape
func band2pFMA32(o0, o1, o2, o3, bp, bq *float32, av *[8]float32, n int)

// axpyFMA32 computes o[j] = fma(s, b[j], o[j]) for j=0..n-1 in float32.
//
//go:noescape
func axpyFMA32(o, b *float32, s float32, n int)

// dotFMA32 returns the striped fused float32 dot product of a[:n] and
// b[:n]: sixteen accumulator lanes (two 8-float32 vectors) stepped by
// 16, reduced lane-pairwise, plus a single-chain fused n%16 tail.
//
//go:noescape
func dotFMA32(a, b *float32, n int) float32

// vexpFMA32 fills o[i] = exp(x[i]) for i < n (n a multiple of 8, n > 0)
// with expf32's reduction and polynomial, 8 lanes per vector: n rounds
// to nearest-even via VCVTPS2DQ, the polynomial runs on VFMADD213PS,
// and the 2^n scale uses the same two half-factor products as the
// scalar. Saturation (+Inf above expMaxIn, 0 below expMinIn) and NaN
// propagation are applied by masks compared against the original input,
// matching the scalar edges exactly. consts points at expConsts32's 14
// pre-broadcast 8-lane constant rows.
//
//go:noescape
func vexpFMA32(o, x, consts *float32, n int)

// vaddFMA32 computes o[j] = a[j] + b[j] for j < n: plain VADDPS, so —
// unlike the fused kernels — bitwise-identical to the scalar loop.
//
//go:noescape
func vaddFMA32(o, a, b *float32, n int)
