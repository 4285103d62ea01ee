package ad

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// kernelCase names one of the three matmul variants and pairs the
// blocked kernel with its scalar oracle. Dimension semantics follow the
// kernel signatures: out is [r,c]; a is [r,k] (or [k,r] for TN); b is
// [k,c] (or [c,k] for NT).
type kernelCase struct {
	name             string
	blocked, scalar  func(out, a, b []float64, r, k, c int)
	aLen, bLen, oLen func(r, k, c int) int
}

var kernelCases = []kernelCase{
	{
		name: "NN", blocked: matmul, scalar: matmulScalar,
		aLen: func(r, k, c int) int { return r * k },
		bLen: func(r, k, c int) int { return k * c },
		oLen: func(r, k, c int) int { return r * c },
	},
	{
		name: "NT", blocked: matmulNT, scalar: matmulNTScalar,
		aLen: func(r, k, c int) int { return r * k },
		bLen: func(r, k, c int) int { return c * k },
		oLen: func(r, k, c int) int { return r * c },
	},
	{
		name: "TN", blocked: matmulTN, scalar: matmulTNScalar,
		aLen: func(r, k, c int) int { return k * r },
		bLen: func(r, k, c int) int { return k * c },
		oLen: func(r, k, c int) int { return r * c },
	},
}

// fillRand populates dst with values drawn from r; zeroFrac entries are
// exact zeros, exercising the kernels' skip-zero paths.
func fillRand(r *rand.Rand, dst []float64, zeroFrac float64) {
	for i := range dst {
		if r.Float64() < zeroFrac {
			dst[i] = 0
			continue
		}
		dst[i] = (r.Float64()*2 - 1) * math.Exp(float64(r.Intn(20)-10))
	}
}

// TestKernelsBitwiseOracle: the blocked kernels must match the scalar
// kernels bit for bit on randomized shapes (including all remainder
// combinations around the 4x4 micro-kernel), random accumulation targets
// (the kernels have += semantics), and inputs with exact zeros. The
// training determinism guarantee rests on this equality.
func TestKernelsBitwiseOracle(t *testing.T) {
	r := rand.New(rand.NewSource(99))
	dims := []int{1, 2, 3, 4, 5, 7, 8, 9, 12, 16, 17, 23, 31, 32, 33, 64}
	pick := func() int { return dims[r.Intn(len(dims))] }
	for _, kc := range kernelCases {
		t.Run(kc.name, func(t *testing.T) {
			for trial := 0; trial < 300; trial++ {
				R, K, C := pick(), pick(), pick()
				a := make([]float64, kc.aLen(R, K, C))
				b := make([]float64, kc.bLen(R, K, C))
				fillRand(r, a, 0.2)
				fillRand(r, b, 0.1)
				want := make([]float64, kc.oLen(R, K, C))
				fillRand(r, want, 0.3) // accumulate into nonzero out
				got := append([]float64(nil), want...)
				kc.scalar(want, a, b, R, K, C)
				kc.blocked(got, a, b, R, K, C)
				for i := range want {
					if math.Float64bits(got[i]) != math.Float64bits(want[i]) {
						t.Fatalf("%s r=%d k=%d c=%d: out[%d] = %x (%g), scalar %x (%g)",
							kc.name, R, K, C, i,
							math.Float64bits(got[i]), got[i],
							math.Float64bits(want[i]), want[i])
					}
				}
			}
		})
	}
}

// sameBits reports bitwise equality, except that any NaN matches any
// NaN: Go leaves NaN sign/payload propagation to the compiler's operand
// ordering, so only NaN-ness — not the payload — is portable.
func sameBits(x, y float64) bool {
	if math.IsNaN(x) || math.IsNaN(y) {
		return math.IsNaN(x) && math.IsNaN(y)
	}
	return math.Float64bits(x) == math.Float64bits(y)
}

// TestKernelsBitwiseOracleSpecials repeats the oracle comparison with
// Inf and NaN planted in b: products against zero entries of a must stay
// skipped exactly as the scalar kernels skip them (an unskipped 0 x Inf
// would materialize a NaN the scalar kernel never produced).
func TestKernelsBitwiseOracleSpecials(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	specials := []float64{math.Inf(1), math.Inf(-1), math.NaN(), 0, math.Copysign(0, -1)}
	for _, kc := range kernelCases {
		t.Run(kc.name, func(t *testing.T) {
			for trial := 0; trial < 100; trial++ {
				R, K, C := 1+r.Intn(13), 1+r.Intn(13), 1+r.Intn(13)
				a := make([]float64, kc.aLen(R, K, C))
				b := make([]float64, kc.bLen(R, K, C))
				fillRand(r, a, 0.3)
				fillRand(r, b, 0)
				for i := 0; i < len(b)/4+1; i++ {
					b[r.Intn(len(b))] = specials[r.Intn(len(specials))]
				}
				want := make([]float64, kc.oLen(R, K, C))
				got := make([]float64, len(want))
				kc.scalar(want, a, b, R, K, C)
				kc.blocked(got, a, b, R, K, C)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s r=%d k=%d c=%d with specials: out[%d] = %x, scalar %x",
							kc.name, R, K, C, i, math.Float64bits(got[i]), math.Float64bits(want[i]))
					}
				}
			}
		})
	}
}

// BenchmarkMatmulKernels compares the blocked kernels against the scalar
// reference on the model's hot shapes: the forward/backward products of
// an LSTM step on a 4-row training shard and on a full 32-row batch, and
// the decoder's output projection; then matmul alone at the encoder's
// gate shape (k = 48, c = 128) for r = 1…8 rows, where every r%4 rows
// run as a partial band, and on 4 rows whose coefficients hold 2%, 10%
// or 50% exact zeros. EXPERIMENTS.md quotes its gflops from
// `go test -run '^$' -bench BenchmarkMatmulKernels -count N ./internal/ad`.
func BenchmarkMatmulKernels(b *testing.B) {
	shapes := []struct {
		name    string
		r, k, c int
	}{
		{"shard-lstm", 4, 64, 256},  // x[4,H] @ Wx[H,4H]
		{"batch-lstm", 32, 64, 256}, // full-batch step for comparison
		{"logits", 4, 64, 400},      // hTilde @ out.W (vocab projection)
		{"square", 64, 64, 64},      // generic mid-size product
		{"gradTN", 64, 32, 256},     // dW += X^T @ dOut (k = batch rows)
	}
	for _, kc := range kernelCases {
		for _, sh := range shapes {
			r, k, c := sh.r, sh.k, sh.c
			if kc.name == "TN" {
				// TN reduces over the batch: reinterpret r/k so the
				// shapes stay the model's actual gradient products.
				r, k = k, r
			}
			a := make([]float64, kc.aLen(r, k, c))
			bm := make([]float64, kc.bLen(r, k, c))
			out := make([]float64, kc.oLen(r, k, c))
			rng := rand.New(rand.NewSource(1))
			// Dense operands: tanh/sigmoid activations and softmax
			// gradients have no exact zeros; dropout-masked inputs do,
			// and degrade the fused kernels toward scalar speed (the
			// slow path is the scalar per-row axpy).
			fillRand(rng, a, 0)
			fillRand(rng, bm, 0)
			flops := float64(2 * r * k * c)
			b.Run(fmt.Sprintf("%s/%s/blocked", kc.name, sh.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kc.blocked(out, a, bm, r, k, c)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
			b.Run(fmt.Sprintf("%s/%s/scalar", kc.name, sh.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					kc.scalar(out, a, bm, r, k, c)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
		}
	}
	const k, c = 48, 128
	for r := 1; r <= 8; r++ {
		a, bm, out := make([]float64, r*k), make([]float64, k*c), make([]float64, r*c)
		rng := rand.New(rand.NewSource(1))
		fillRand(rng, a, 0)
		fillRand(rng, bm, 0)
		b.Run(fmt.Sprintf("NN/rows-%d/blocked", r), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matmul(out, a, bm, r, k, c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())*1000/float64(b.N*r*k*c), "ps/madd")
		})
	}
	// The same gate shape on 4 rows with a share of exact zeros in a
	// (masked attention weights, dropout-masked inputs): every pair of
	// steps holding one runs as per-row skip-zero axpy.
	for _, z := range []float64{0.02, 0.1, 0.5} {
		const r = 4
		a, bm, out := make([]float64, r*k), make([]float64, k*c), make([]float64, r*c)
		rng := rand.New(rand.NewSource(1))
		fillRand(rng, a, z)
		fillRand(rng, bm, 0)
		b.Run(fmt.Sprintf("NN/zeros-%g/blocked", z), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				matmul(out, a, bm, r, k, c)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())*1000/float64(b.N*r*k*c), "ps/madd")
		})
	}
}

// FuzzMatmulBitwise holds matmul and matmulTN to matmulScalar and
// matmulTNScalar bit for bit (any NaN matching any NaN), with the vector
// kernels on and off: r 1–9 rows (full bands, partial bands and both),
// k 1–16 (odd and even), c ∈ {1, 7, 8, 9, 33} (below, at and past the
// vector width), a random share of a's (row, p) coefficients zero or
// −0, and optionally Inf and NaN in a and b. The seed corpus runs every
// r with k ∈ {1, 2, 7, 8} and every c.
func FuzzMatmulBitwise(f *testing.F) {
	cs := []int{1, 7, 8, 9, 33}
	for r := 1; r <= 9; r++ {
		for _, k := range []int{1, 2, 7, 8} {
			for ci := range cs {
				f.Add(int64(r*1000+k*10+ci), uint8(r-1), uint8(k-1), uint8(ci), uint8(10*(r%4)), (r+k+ci)%3 == 0)
			}
		}
	}
	f.Fuzz(func(t *testing.T, seed int64, rr, kk, ci, zeroPct uint8, special bool) {
		R, K, C := 1+int(rr)%9, 1+int(kk)%16, cs[int(ci)%len(cs)]
		rng := rand.New(rand.NewSource(seed))
		a, b, out0 := make([]float64, R*K), make([]float64, K*C), make([]float64, R*C)
		fillRand(rng, a, 0)
		fillRand(rng, b, 0)
		fillRand(rng, out0, 0.3)
		for n := int(zeroPct) % 101 * len(a) / 100; n > 0; n-- {
			a[rng.Intn(len(a))] = math.Copysign(0, float64(rng.Intn(2))-0.5)
		}
		if special {
			vals := []float64{math.Inf(1), math.Inf(-1), math.NaN()}
			a[rng.Intn(len(a))] = vals[rng.Intn(len(vals))]
			for n := 1 + len(b)/8; n > 0; n-- {
				b[rng.Intn(len(b))] = vals[rng.Intn(len(vals))]
			}
		}
		saved := useAVX2
		defer func() { useAVX2 = saved }()
		for _, kc := range []kernelCase{kernelCases[0], kernelCases[2]} {
			want := append([]float64(nil), out0...)
			kc.scalar(want, a, b, R, K, C)
			for _, vec := range []bool{saved, false} {
				useAVX2 = vec
				got := append([]float64(nil), out0...)
				kc.blocked(got, a, b, R, K, C)
				for i := range want {
					if !sameBits(got[i], want[i]) {
						t.Fatalf("%s r=%d k=%d c=%d avx2=%v: out[%d] = %x (%g), scalar %x (%g)",
							kc.name, R, K, C, vec, i, math.Float64bits(got[i]), got[i],
							math.Float64bits(want[i]), want[i])
					}
				}
			}
		}
	})
}
