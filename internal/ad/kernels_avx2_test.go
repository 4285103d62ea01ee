package ad

import (
	"math"
	"math/rand"
	"testing"
)

// withAVX2 runs f twice — vector path forced on (when the host has it)
// and forced off — and returns both results for bitwise comparison.
// Serial only: it flips the package-level dispatch flag.
func withAVX2(f func() []float64) (vec, scalar []float64) {
	saved := useAVX2
	defer func() { useAVX2 = saved }()
	useAVX2 = saved // vector path only exists where detection succeeded
	vec = f()
	useAVX2 = false
	scalar = f()
	return vec, scalar
}

func bitsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
			return false
		}
	}
	return true
}

// TestBandKernelAVX2Bitwise pins the AVX2 band kernel (bandAVX2, which
// runs a band's whole p loop, the pairs holding a zero row by row) and
// the axpy micro-kernel to the pure-Go kernels bitwise across randomized
// shapes, including remainder-only row counts (r < 4, the batch-size-1
// matvecs), sub-vector tails, denormals-by-product, zeros and −0 in a
// (one pair holding a zero, or every pair), and special values in b.
func TestBandKernelAVX2Bitwise(t *testing.T) {
	if !useAVX2 {
		t.Skip("host has no AVX2; vector path unreachable")
	}
	r := rand.New(rand.NewSource(11))
	for trial := 0; trial < 280; trial++ {
		rr := 1 + r.Intn(12) // remainder-only calls as well as full bands
		k := 1 + r.Intn(17)
		c := 1 + r.Intn(37) // exercises c < avxMinC and ragged tails
		a := make([]float64, rr*k)
		b := make([]float64, k*c)
		for i := range a {
			a[i] = r.NormFloat64()
		}
		for i := range b {
			b[i] = r.NormFloat64()
		}
		switch trial % 7 {
		case 1: // zeros in a exercise the skip paths around the asm call
			a[r.Intn(len(a))] = 0
		case 2: // special values in b flow through mul/add identically
			b[r.Intn(len(b))] = math.Inf(1)
			b[r.Intn(len(b))] = math.NaN()
		case 3:
			b[r.Intn(len(b))] = math.Copysign(0, -1)
		case 5: // −0 is a zero to the kernel's test, as to Go's != 0
			a[r.Intn(len(a))] = math.Copysign(0, -1)
			b[r.Intn(len(b))] = math.Inf(-1)
		case 6: // a zero in every step of row 0: every pair holds one
			for p := 0; p < k; p++ {
				a[p] = 0
			}
		}
		vec, scalar := withAVX2(func() []float64 {
			out := make([]float64, rr*c)
			matmul(out, a, b, rr, k, c)
			return out
		})
		if !bitsEqual(vec, scalar) {
			t.Fatalf("matmul vector/scalar mismatch at trial %d (r=%d k=%d c=%d)", trial, rr, k, c)
		}
		vecTN, scalarTN := withAVX2(func() []float64 {
			out := make([]float64, rr*c)
			matmulTN(out, a, b[:k*c], rr, k, c)
			return out
		})
		_ = scalarTN
		if !bitsEqual(vecTN, scalarTN) {
			t.Fatalf("matmulTN vector/scalar mismatch at trial %d (r=%d k=%d c=%d)", trial, rr, k, c)
		}
	}
}

// TestAxpyAVX2Bitwise covers every tail length through the unrolled,
// single-vector, and scalar segments of axpyAVX2.
func TestAxpyAVX2Bitwise(t *testing.T) {
	if !useAVX2 {
		t.Skip("host has no AVX2; vector path unreachable")
	}
	r := rand.New(rand.NewSource(13))
	for n := avxMinC; n < avxMinC+40; n++ {
		o := make([]float64, n)
		b := make([]float64, n)
		for i := range o {
			o[i] = r.NormFloat64()
			b[i] = r.NormFloat64()
		}
		b[n/2] = math.Inf(-1)
		s := r.NormFloat64()
		vec, scalar := withAVX2(func() []float64 {
			out := append([]float64(nil), o...)
			axpy(out, b, s)
			return out
		})
		if !bitsEqual(vec, scalar) {
			t.Fatalf("axpy vector/scalar mismatch at n=%d", n)
		}
	}
}

// BenchmarkBandKernel measures the band matmul at the decoder's
// out-projection shape for both dispatch settings.
func BenchmarkBandKernel(b *testing.B) {
	const rr, k, c = 40, 64, 404
	a := make([]float64, rr*k)
	bm := make([]float64, k*c)
	out := make([]float64, rr*c)
	r := rand.New(rand.NewSource(17))
	for i := range a {
		a[i] = r.NormFloat64()
	}
	for i := range bm {
		bm[i] = r.NormFloat64()
	}
	for _, vec := range []bool{false, true} {
		name := "go"
		if vec {
			name = "avx2"
		}
		b.Run(name, func(b *testing.B) {
			if vec && !useAVX2 {
				b.Skip("host has no AVX2")
			}
			saved := useAVX2
			useAVX2 = vec
			defer func() { useAVX2 = saved }()
			for i := 0; i < b.N; i++ {
				matmul(out, a, bm, rr, k, c)
			}
			b.SetBytes(int64(rr * k * c * 16)) // 2 flops × 8 bytes/flop proxy
		})
	}
}
