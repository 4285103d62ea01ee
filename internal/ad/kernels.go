package ad

import "sync"

// Dense matmul kernels. Three variants cover the forward pass and both
// backward products of MatMul:
//
//	matmul   : out += A  @ B    A [r,k], B [k,c]   (forward)
//	matmulNT : out += A  @ B^T  A [r,k], B [c,k]   (dA += dOut @ W^T)
//	matmulTN : out += A^T @ B   A [k,r], B [k,c]   (dW += X^T @ dOut)
//
// matmul and matmulTN are band-fused axpy kernels: four rows of out are
// updated together so each streamed row of b is reused four times, and
// the p loop is unrolled 2x so every out element is loaded and stored
// once per two multiply-adds — ~2.4x fewer memory ops per FLOP than the
// scalar kernels, whose inner loops are load/store-port bound. The
// scalar kernels' skip-zero tests on a are hoisted out of the c-wide
// inner loop (one predictable branch per p step instead of one per
// element band), which matters more than register blocking here: a
// data-dependent branch inside the micro-kernel costs more than the
// loads it saves. matmulNT has no skip semantics, so it keeps a classic
// 4x4 register micro-kernel (sixteen independent accumulator chains)
// with a panel-packed b for tall a, and its remainder rows and columns
// fall through to its scalar kernel. The scalar kernels double as the
// oracle reference in kernels_test.go.
//
// On amd64 hosts with AVX2 every band of matmul and matmulTN, the 1–3
// remainder rows included, is one call of the vector band kernel
// (bandVec → bandAVX2, kernels_amd64.s), which runs the p loop itself:
// it loads, tests and broadcasts each pair's coefficients and runs a
// pair holding a zero row by row, each row skipping its zero steps as
// the per-row skip-zero axpy does; only an odd k's last step runs in Go.
// The two kernels pass their coefficient strides (a[i*k+p] and
// a[p*r+i]) and share it.
// Each f64 vector kernel is bitwise equal to its named scalar
// reference. For these the reference is the scalar kernels, which round
// every multiply and add, so they use separate VMULPD/VADDPD (an FMA's
// single rounding would diverge): each SIMD lane executes exactly the
// scalar op sequence and the bitwise contract below is preserved. The
// pure-Go path (other hosts, and c < avxMinC) runs the same band logic
// in Go, with a per-row skip-zero axpy for the remainder rows.
//
// Bitwise contract: every kernel reproduces the scalar kernels' result
// exactly — for each out[i,j], partial products accumulate in ascending-p
// order along a single dependency chain, and the scalar kernels'
// skip-zero tests on A are preserved (so a zero times Inf/NaN stays
// skipped, never materializing a NaN the scalar kernel would not have).
// TestKernelsBitwiseOracle enforces equality on randomized shapes; the
// training determinism guarantee (-j 1 ≡ -j N) rests on it.

// blockDim is the micro-kernel edge: 4 rows x 4 columns of out per block.
const blockDim = 4

// packMinRows gates panel-packing in matmulNT: packing a 4-column panel
// of B costs 4k copies and pays for itself only when it is reused across
// enough row blocks of A.
const packMinRows = 4 * blockDim

// packBuf recycles matmulNT packing panels across calls; kernels run
// concurrently on training shard workers, so the scratch cannot be
// package-global state.
var packBuf = sync.Pool{New: func() any { return new([]float64) }}

// axpy computes o[j] += s * bv[j] over len(bv) elements; s is nonzero.
func axpy(o, bv []float64, s float64) {
	o = o[:len(bv)]
	if useAVX2 && len(bv) >= avxMinC {
		axpyAVX2(&o[0], &bv[0], s, len(bv))
		return
	}
	for j, v := range bv {
		o[j] += s * v
	}
}

// matmul computes out += a@b with out [r,c], a [r,k], b [k,c]; out is
// assumed zeroed (fresh) by callers that need assignment semantics.
func matmul(out, a, b []float64, r, k, c int) {
	if useAVX2 && c >= avxMinC {
		for i := 0; i < r; i += blockDim {
			bandVec(out[i*c:], a[i*k:], b, k, 1, min(blockDim, r-i), k, c)
		}
		return
	}
	ib := r - r%blockDim
	for i := 0; i < ib; i += blockDim {
		a0 := a[i*k : i*k+k : i*k+k]
		a1 := a[(i+1)*k : (i+1)*k+k : (i+1)*k+k]
		a2 := a[(i+2)*k : (i+2)*k+k : (i+2)*k+k]
		a3 := a[(i+3)*k : (i+3)*k+k : (i+3)*k+k]
		o0 := out[i*c : i*c+c : i*c+c]
		o1 := out[(i+1)*c : (i+1)*c+c : (i+1)*c+c]
		o2 := out[(i+2)*c : (i+2)*c+c : (i+2)*c+c]
		o3 := out[(i+3)*c : (i+3)*c+c : (i+3)*c+c]
		p := 0
		for ; p+1 < k; p += 2 {
			av00, av01, av02, av03 := a0[p], a1[p], a2[p], a3[p]
			av10, av11, av12, av13 := a0[p+1], a1[p+1], a2[p+1], a3[p+1]
			bp := b[p*c : p*c+c : p*c+c]
			bq := b[(p+1)*c : (p+1)*c+c : (p+1)*c+c]
			if av00 != 0 && av01 != 0 && av02 != 0 && av03 != 0 &&
				av10 != 0 && av11 != 0 && av12 != 0 && av13 != 0 {
				for j, bv0 := range bp {
					bv1 := bq[j]
					t0 := o0[j] + av00*bv0
					o0[j] = t0 + av10*bv1
					t1 := o1[j] + av01*bv0
					o1[j] = t1 + av11*bv1
					t2 := o2[j] + av02*bv0
					o2[j] = t2 + av12*bv1
					t3 := o3[j] + av03*bv0
					o3[j] = t3 + av13*bv1
				}
				continue
			}
			// A zero somewhere in the band: per-row axpy keeps each
			// element's ascending-p chain and the scalar skip exactly.
			if av00 != 0 {
				axpy(o0, bp, av00)
			}
			if av10 != 0 {
				axpy(o0, bq, av10)
			}
			if av01 != 0 {
				axpy(o1, bp, av01)
			}
			if av11 != 0 {
				axpy(o1, bq, av11)
			}
			if av02 != 0 {
				axpy(o2, bp, av02)
			}
			if av12 != 0 {
				axpy(o2, bq, av12)
			}
			if av03 != 0 {
				axpy(o3, bp, av03)
			}
			if av13 != 0 {
				axpy(o3, bq, av13)
			}
		}
		if p < k { // odd k tail
			bp := b[p*c : p*c+c : p*c+c]
			if av := a0[p]; av != 0 {
				axpy(o0, bp, av)
			}
			if av := a1[p]; av != 0 {
				axpy(o1, bp, av)
			}
			if av := a2[p]; av != 0 {
				axpy(o2, bp, av)
			}
			if av := a3[p]; av != 0 {
				axpy(o3, bp, av)
			}
		}
	}
	// Remainder rows: per-row skip-zero axpy in ascending p, the scalar
	// kernel's exact per-element chain.
	for i := ib; i < r; i++ {
		ai := a[i*k : i*k+k : i*k+k]
		oi := out[i*c : i*c+c : i*c+c]
		for p, av := range ai {
			if av != 0 {
				axpy(oi, b[p*c:p*c+c:p*c+c], av)
			}
		}
	}
}

// bandVec runs one band of 1–4 rows of matmul or matmulTN on the vector
// kernel: out holds the band's [rows,c] rows and the coefficient of row
// q at step p is a[q*rs+p*ps]. bandAVX2 runs every pair of steps, the
// pairs holding a zero with the per-row skips; an odd k's last step
// runs here as per-row skip-zero axpy, so every element keeps the
// scalar kernel's ascending-p chain and skips.
func bandVec(out, a, b []float64, rs, ps, rows, k, c int) {
	if k == 0 {
		return
	}
	// The kernel's reads and writes stay inside these bounds.
	_, _, _ = a[(rows-1)*rs+(k-1)*ps], b[k*c-1], out[rows*c-1]
	bandAVX2(&out[0], &a[0], &b[0], rs, ps, c, k, rows)
	if k%2 == 1 {
		p := k - 1
		bp := b[p*c : p*c+c : p*c+c]
		for q := 0; q < rows; q++ {
			if av := a[q*rs+p*ps]; av != 0 {
				axpy(out[q*c:q*c+c:q*c+c], bp, av)
			}
		}
	}
}

// matmulNT computes out += a @ b^T with a [r,k], b [c,k], out [r,c].
// For tall a, four rows of b are packed into an interleaved [k x 4]
// panel so the micro-kernel streams one contiguous buffer instead of
// four strided rows; the panel is reused across all row blocks of a.
// On AVX2 hosts the packed panel additionally feeds ntPanelAVX2, whose
// lanes replay the Go panel loop's accumulator chains exactly; packing
// is then worth it for any blocked shape, not just tall a.
func matmulNT(out, a, b []float64, r, k, c int) {
	ib, jb := r-r%blockDim, c-c%blockDim
	var panel []float64
	var panelPtr *[]float64
	if ib > 0 && jb > 0 && (useAVX2 || r >= packMinRows) {
		panelPtr = packBuf.Get().(*[]float64)
		if cap(*panelPtr) < blockDim*k {
			*panelPtr = make([]float64, blockDim*k)
		}
		panel = (*panelPtr)[:blockDim*k]
	}
	for j := 0; j < jb; j += blockDim {
		b0 := b[j*k : j*k+k : j*k+k]
		b1 := b[(j+1)*k : (j+1)*k+k : (j+1)*k+k]
		b2 := b[(j+2)*k : (j+2)*k+k : (j+2)*k+k]
		b3 := b[(j+3)*k : (j+3)*k+k : (j+3)*k+k]
		if panel != nil {
			for p := 0; p < k; p++ {
				panel[4*p] = b0[p]
				panel[4*p+1] = b1[p]
				panel[4*p+2] = b2[p]
				panel[4*p+3] = b3[p]
			}
		}
		for i := 0; i < ib; i += blockDim {
			a0 := a[i*k : i*k+k : i*k+k]
			a1 := a[(i+1)*k : (i+1)*k+k : (i+1)*k+k]
			a2 := a[(i+2)*k : (i+2)*k+k : (i+2)*k+k]
			a3 := a[(i+3)*k : (i+3)*k+k : (i+3)*k+k]
			var s00, s01, s02, s03 float64
			var s10, s11, s12, s13 float64
			var s20, s21, s22, s23 float64
			var s30, s31, s32, s33 float64
			if panel != nil && useAVX2 && k > 0 {
				var s [16]float64
				ntPanelAVX2(&s, &a0[0], &a1[0], &a2[0], &a3[0], &panel[0], k)
				s00, s01, s02, s03 = s[0], s[1], s[2], s[3]
				s10, s11, s12, s13 = s[4], s[5], s[6], s[7]
				s20, s21, s22, s23 = s[8], s[9], s[10], s[11]
				s30, s31, s32, s33 = s[12], s[13], s[14], s[15]
			} else if panel != nil {
				for p := 0; p < k; p++ {
					v0, v1, v2, v3 := panel[4*p], panel[4*p+1], panel[4*p+2], panel[4*p+3]
					av := a0[p]
					s00 += av * v0
					s01 += av * v1
					s02 += av * v2
					s03 += av * v3
					av = a1[p]
					s10 += av * v0
					s11 += av * v1
					s12 += av * v2
					s13 += av * v3
					av = a2[p]
					s20 += av * v0
					s21 += av * v1
					s22 += av * v2
					s23 += av * v3
					av = a3[p]
					s30 += av * v0
					s31 += av * v1
					s32 += av * v2
					s33 += av * v3
				}
			} else {
				for p := 0; p < k; p++ {
					v0, v1, v2, v3 := b0[p], b1[p], b2[p], b3[p]
					av := a0[p]
					s00 += av * v0
					s01 += av * v1
					s02 += av * v2
					s03 += av * v3
					av = a1[p]
					s10 += av * v0
					s11 += av * v1
					s12 += av * v2
					s13 += av * v3
					av = a2[p]
					s20 += av * v0
					s21 += av * v1
					s22 += av * v2
					s23 += av * v3
					av = a3[p]
					s30 += av * v0
					s31 += av * v1
					s32 += av * v2
					s33 += av * v3
				}
			}
			out[i*c+j] += s00
			out[i*c+j+1] += s01
			out[i*c+j+2] += s02
			out[i*c+j+3] += s03
			out[(i+1)*c+j] += s10
			out[(i+1)*c+j+1] += s11
			out[(i+1)*c+j+2] += s12
			out[(i+1)*c+j+3] += s13
			out[(i+2)*c+j] += s20
			out[(i+2)*c+j+1] += s21
			out[(i+2)*c+j+2] += s22
			out[(i+2)*c+j+3] += s23
			out[(i+3)*c+j] += s30
			out[(i+3)*c+j+1] += s31
			out[(i+3)*c+j+2] += s32
			out[(i+3)*c+j+3] += s33
		}
	}
	if panelPtr != nil {
		packBuf.Put(panelPtr)
	}
	// Remainder columns across the blocked rows.
	if jb < c && ib > 0 {
		for i := 0; i < ib; i++ {
			ai := a[i*k : i*k+k : i*k+k]
			oi := out[i*c : i*c+c : i*c+c]
			for j := jb; j < c; j++ {
				bj := b[j*k : j*k+k : j*k+k]
				s := 0.0
				for p := 0; p < k; p++ {
					s += ai[p] * bj[p]
				}
				oi[j] += s
			}
		}
	}
	// Remainder rows.
	if ib < r {
		matmulNTScalar(out[ib*c:], a[ib*k:], b, r-ib, k, c)
	}
}

// matmulTN computes out += a^T @ b with a [k,r], b [k,c], out [r,c].
// Same band-fused axpy shape as matmul; here the four a coefficients of
// a band sit contiguously in a's row p (a[p*r+i..i+3]).
func matmulTN(out, a, b []float64, r, k, c int) {
	if useAVX2 && c >= avxMinC {
		for i := 0; i < r; i += blockDim {
			bandVec(out[i*c:], a[i:], b, 1, r, min(blockDim, r-i), k, c)
		}
		return
	}
	ib := r - r%blockDim
	for i := 0; i < ib; i += blockDim {
		o0 := out[i*c : i*c+c : i*c+c]
		o1 := out[(i+1)*c : (i+1)*c+c : (i+1)*c+c]
		o2 := out[(i+2)*c : (i+2)*c+c : (i+2)*c+c]
		o3 := out[(i+3)*c : (i+3)*c+c : (i+3)*c+c]
		p := 0
		for ; p+1 < k; p += 2 {
			av00, av01, av02, av03 := a[p*r+i], a[p*r+i+1], a[p*r+i+2], a[p*r+i+3]
			av10, av11, av12, av13 := a[(p+1)*r+i], a[(p+1)*r+i+1], a[(p+1)*r+i+2], a[(p+1)*r+i+3]
			bp := b[p*c : p*c+c : p*c+c]
			bq := b[(p+1)*c : (p+1)*c+c : (p+1)*c+c]
			if av00 != 0 && av01 != 0 && av02 != 0 && av03 != 0 &&
				av10 != 0 && av11 != 0 && av12 != 0 && av13 != 0 {
				for j, bv0 := range bp {
					bv1 := bq[j]
					t0 := o0[j] + av00*bv0
					o0[j] = t0 + av10*bv1
					t1 := o1[j] + av01*bv0
					o1[j] = t1 + av11*bv1
					t2 := o2[j] + av02*bv0
					o2[j] = t2 + av12*bv1
					t3 := o3[j] + av03*bv0
					o3[j] = t3 + av13*bv1
				}
				continue
			}
			if av00 != 0 {
				axpy(o0, bp, av00)
			}
			if av10 != 0 {
				axpy(o0, bq, av10)
			}
			if av01 != 0 {
				axpy(o1, bp, av01)
			}
			if av11 != 0 {
				axpy(o1, bq, av11)
			}
			if av02 != 0 {
				axpy(o2, bp, av02)
			}
			if av12 != 0 {
				axpy(o2, bq, av12)
			}
			if av03 != 0 {
				axpy(o3, bp, av03)
			}
			if av13 != 0 {
				axpy(o3, bq, av13)
			}
		}
		if p < k { // odd k tail
			bp := b[p*c : p*c+c : p*c+c]
			if av := a[p*r+i]; av != 0 {
				axpy(o0, bp, av)
			}
			if av := a[p*r+i+1]; av != 0 {
				axpy(o1, bp, av)
			}
			if av := a[p*r+i+2]; av != 0 {
				axpy(o2, bp, av)
			}
			if av := a[p*r+i+3]; av != 0 {
				axpy(o3, bp, av)
			}
		}
	}
	// Remainder rows: scalar p-outer axpy over the tail rows of out.
	if ib < r {
		for p := 0; p < k; p++ {
			ap := a[p*r : p*r+r : p*r+r]
			bp := b[p*c : p*c+c : p*c+c]
			for i := ib; i < r; i++ {
				av := ap[i]
				if av == 0 {
					continue
				}
				axpy(out[i*c:i*c+c:i*c+c], bp, av)
			}
		}
	}
}

// The scalar kernels below are the pre-blocking implementations: the
// bitwise oracle the blocked kernels are tested against, and matmulNT's
// remainder-row path.

// matmulScalar is the scalar reference for matmul.
func matmulScalar(out, a, b []float64, r, k, c int) {
	for i := 0; i < r; i++ {
		ai := a[i*k : (i+1)*k]
		oi := out[i*c : (i+1)*c]
		for p := 0; p < k; p++ {
			av := ai[p]
			if av == 0 {
				continue
			}
			bp := b[p*c : (p+1)*c]
			for j := 0; j < c; j++ {
				oi[j] += av * bp[j]
			}
		}
	}
}

// matmulNTScalar is the scalar reference for matmulNT.
func matmulNTScalar(out, a, b []float64, r, k, c int) {
	for i := 0; i < r; i++ {
		ai := a[i*k : (i+1)*k]
		oi := out[i*c : (i+1)*c]
		for j := 0; j < c; j++ {
			bj := b[j*k : (j+1)*k]
			s := 0.0
			for p := 0; p < k; p++ {
				s += ai[p] * bj[p]
			}
			oi[j] += s
		}
	}
}

// matmulTNScalar is the scalar reference for matmulTN.
func matmulTNScalar(out, a, b []float64, r, k, c int) {
	for p := 0; p < k; p++ {
		ap := a[p*r : (p+1)*r]
		bp := b[p*c : (p+1)*c]
		for i := 0; i < r; i++ {
			av := ap[i]
			if av == 0 {
				continue
			}
			oi := out[i*c : (i+1)*c]
			for j := 0; j < c; j++ {
				oi[j] += av * bp[j]
			}
		}
	}
}
