//go:build amd64

package ad

// The assembly micro-kernels below vectorize the hot inner loops of the
// band-fused matmul kernels with AVX2. They use separate VMULPD/VADDPD
// (never FMA): a fused multiply-add rounds once where scalar Go code
// rounds twice, so FMA would break the kernels' bitwise contract. With
// separate ops every SIMD lane performs exactly the scalar sequence
// out = (out + a0*b0) + a1*b1 on the same IEEE-754 doubles, so the
// vector path is bitwise-identical to the Go path by construction;
// TestBandKernelAVX2Bitwise and the kernel oracle enforce it.

// avxMinC is the minimum row width before band2pAVX2 pays for its call
// overhead; every model GEMM (gate, projection, vocabulary widths) is
// far above it.
const avxMinC = 8

// band2pAVX2 applies two fused axpy steps to a four-row band:
//
//	o_r[j] = (o_r[j] + av[r]*bp[j]) + av[4+r]*bq[j]   r=0..3, j=0..n-1
//
// matching the all-nonzero fast path of matmul/matmulTN bitwise.
//
//go:noescape
func band2pAVX2(o0, o1, o2, o3, bp, bq *float64, av *[8]float64, n int)

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

// The float32 kernels below serve the f32 inference tier
// (kernels_f32.go): 8-lane VFMADD231PS, one rounding per multiply-add
// where the training kernels above round twice. Unlike those kernels
// they are NOT bitwise-pinned to their pure-Go mirrors — the Go mirrors
// fuse through float64, which can double-round against hardware
// single-precision FMA on round-to-nearest ties — so asm and fallback
// are held together by ULP bounds (TestF32KernelsULPBound) instead.

// band2pFMA32 is band2pAVX2 in float32 with fused rounding, 8 lanes per
// vector:
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
