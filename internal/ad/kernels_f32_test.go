package ad

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// f32KernelCase pairs a float32 kernel with the exact float64 scalar
// reference it drifts from. The reference runs on float64 copies of the
// same float32 inputs, so its result is exact at the scale of float32
// rounding and ULP distances are measured in float32 bit space.
type f32KernelCase struct {
	name       string
	f32        func(out, a, b []float32, r, k, c int)
	exact      func(out, a, b []float64, r, k, c int)
	aLen, bLen func(r, k, c int) int
}

var f32KernelCases = []f32KernelCase{
	{
		name: "NN", f32: matmul32, exact: matmulScalar,
		aLen: func(r, k, c int) int { return r * k },
		bLen: func(r, k, c int) int { return k * c },
	},
	{
		name: "NT", f32: matmulNT32, exact: matmulNTScalar,
		aLen: func(r, k, c int) int { return r * k },
		bLen: func(r, k, c int) int { return c * k },
	},
	{
		name: "TN", f32: matmulTN32, exact: matmulTNScalar,
		aLen: func(r, k, c int) int { return k * r },
		bLen: func(r, k, c int) int { return k * c },
	},
}

// ulpDiff32 is ulpDiff in float32 bit space.
func ulpDiff32(x, y float32) uint32 {
	xb, yb := int32(math.Float32bits(x)), int32(math.Float32bits(y))
	if xb < 0 {
		xb = math.MinInt32 - xb // order negatives below positives
	}
	if yb < 0 {
		yb = math.MinInt32 - yb
	}
	if xb < yb {
		return uint32(yb - xb)
	}
	return uint32(xb - yb)
}

// withFMA32 runs f twice: with FMA assembly dispatch on (where the host
// has it) and forced off. Serial only.
func withFMA32(f func() []float32) (asm, golang []float32) {
	saved := useFMA
	defer func() { useFMA = saved }()
	asm = f()
	useFMA = false
	golang = f()
	return asm, golang
}

func randF32(r *rand.Rand, s []float32) {
	for i := range s {
		s[i] = float32(0.5 + 1.5*r.Float64())
	}
}

func toF64(s []float32) []float64 {
	out := make([]float64, len(s))
	for i, x := range s {
		out[i] = float64(x)
	}
	return out
}

// TestF32KernelsULPBound: on well-conditioned inputs (all operands in
// [0.5, 2), positive increasing partial sums, no cancellation) each f32
// kernel must stay within 2k+16 float32 ULPs of the exact float64
// reference on the same inputs. Derivation: the fused chain performs at
// most k float32 roundings (the float64 reference is exact at this
// scale), each bounded by eps32 relative, so the drift is ~k ULPs;
// 2k+16 adds slack for the stripe reduction and eps-vs-ULP slop. Both
// the assembly and pure-Go paths must satisfy the bound, and — since
// they may differ on round-to-nearest ties but share the accumulation
// order — they must also stay within a few ULPs of each other.
func TestF32KernelsULPBound(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	for _, kc := range f32KernelCases {
		t.Run(kc.name, func(t *testing.T) {
			for trial := 0; trial < 100; trial++ {
				R, K, C := 1+r.Intn(16), 1+r.Intn(65), 1+r.Intn(37)
				a := make([]float32, kc.aLen(R, K, C))
				b := make([]float32, kc.bLen(R, K, C))
				randF32(r, a)
				randF32(r, b)
				want := make([]float64, R*C)
				kc.exact(want, toF64(a), toF64(b), R, K, C)
				asm, golang := withFMA32(func() []float32 {
					out := make([]float32, R*C)
					kc.f32(out, a, b, R, K, C)
					return out
				})
				maxULP := uint32(2*K + 16)
				for i := range want {
					wf := float32(want[i])
					if d := ulpDiff32(asm[i], wf); d > maxULP {
						t.Fatalf("%s r=%d k=%d c=%d: out[%d] asm %g vs exact %g: %d ulps > %d",
							kc.name, R, K, C, i, asm[i], wf, d, maxULP)
					}
					if d := ulpDiff32(golang[i], wf); d > maxULP {
						t.Fatalf("%s r=%d k=%d c=%d: out[%d] go %g vs exact %g: %d ulps > %d",
							kc.name, R, K, C, i, golang[i], wf, d, maxULP)
					}
					if d := ulpDiff32(asm[i], golang[i]); d > 4 {
						t.Fatalf("%s r=%d k=%d c=%d: out[%d] asm %g vs go %g: %d ulps > 4",
							kc.name, R, K, C, i, asm[i], golang[i], d)
					}
				}
			}
		})
	}
}

// TestF32KernelsErrorBound: on general inputs with mixed signs and wide
// dynamic range, the f32-vs-exact drift of each output element stays
// under the condition-aware estimate 2(k+8)·eps32·(|out0| + Σ|a_p·b_p|)
// — the forward-error analysis of a length-k+1 float32 summation, with
// the stripe term folded into the slack. Checked on the NN kernel for
// both dispatch paths (NT/TN share axpy32/dot32/band2pFMA32 with it).
func TestF32KernelsErrorBound(t *testing.T) {
	const eps = 0x1p-24
	r := rand.New(rand.NewSource(59))
	for trial := 0; trial < 100; trial++ {
		R, K, C := 1+r.Intn(16), 1+r.Intn(65), 1+r.Intn(37)
		a := make([]float32, R*K)
		b := make([]float32, K*C)
		for i := range a {
			a[i] = float32(r.NormFloat64())
			if r.Intn(5) == 0 {
				a[i] = 0
			}
		}
		for i := range b {
			b[i] = float32(r.NormFloat64() * math.Exp(3*r.NormFloat64()))
		}
		want := make([]float64, R*C)
		matmulScalar(want, toF64(a), toF64(b), R, K, C)
		asm, golang := withFMA32(func() []float32 {
			out := make([]float32, R*C)
			matmul32(out, a, b, R, K, C)
			return out
		})
		for i := 0; i < R; i++ {
			for j := 0; j < C; j++ {
				cond := 0.0
				for p := 0; p < K; p++ {
					cond += math.Abs(float64(a[i*K+p]) * float64(b[p*C+j]))
				}
				bound := 2*float64(K+8)*eps*cond + 1e-40
				for _, got := range []float32{asm[i*C+j], golang[i*C+j]} {
					if d := math.Abs(float64(got) - want[i*C+j]); d > bound {
						t.Fatalf("NN r=%d k=%d c=%d: out[%d,%d] f32 %g vs exact %g: |Δ|=%g > %g",
							R, K, C, i, j, got, want[i*C+j], d, bound)
					}
				}
			}
		}
	}
}

// TestF32AttnKernels bounds the f32 attention kernels (plain and
// grouped) against exact float64 references with the pairwise-summation
// condition bound, on both dispatch paths.
func TestF32AttnKernels(t *testing.T) {
	const eps = 0x1p-24
	r := rand.New(rand.NewSource(61))
	for trial := 0; trial < 100; trial++ {
		L, T, H := 1+r.Intn(8), 1+r.Intn(12), 1+r.Intn(80)
		S := 1 + r.Intn(4)
		dec := make([]float32, L*H)
		enc := make([]float32, S*T*H)
		alpha := make([]float32, L*T)
		groups := make([]int, L)
		for i := range dec {
			dec[i] = float32(r.NormFloat64())
		}
		for i := range enc {
			enc[i] = float32(r.NormFloat64())
		}
		for i := range alpha {
			alpha[i] = float32(r.Float64())
		}
		for i := range groups {
			groups[i] = r.Intn(S)
		}

		sAsm, sGo := withFMA32(func() []float32 {
			out := make([]float32, L*T)
			attnScoresGrouped32(out, dec, enc, groups, T, H)
			return out
		})
		for l, g := range groups {
			for tt := 0; tt < T; tt++ {
				exact, cond := 0.0, 0.0
				for j := 0; j < H; j++ {
					p := float64(dec[l*H+j]) * float64(enc[(g*T+tt)*H+j])
					exact += p
					cond += math.Abs(p)
				}
				bound := 2*float64(H+16)*eps*cond + 1e-40
				for _, got := range []float32{sAsm[l*T+tt], sGo[l*T+tt]} {
					if d := math.Abs(float64(got) - exact); d > bound {
						t.Fatalf("attnScoresGrouped32 L=%d T=%d H=%d: [%d,%d] |Δ|=%g > %g", L, T, H, l, tt, d, bound)
					}
				}
			}
		}

		wAsm, wGo := withFMA32(func() []float32 {
			out := make([]float32, L*H)
			weightedSumGrouped32(out, alpha, enc, groups, T, H)
			return out
		})
		for l, g := range groups {
			for j := 0; j < H; j++ {
				exact, cond := 0.0, 0.0
				for tt := 0; tt < T; tt++ {
					p := float64(alpha[l*T+tt]) * float64(enc[(g*T+tt)*H+j])
					exact += p
					cond += math.Abs(p)
				}
				bound := 2*float64(T+16)*eps*cond + 1e-40
				for _, got := range []float32{wAsm[l*H+j], wGo[l*H+j]} {
					if d := math.Abs(float64(got) - exact); d > bound {
						t.Fatalf("weightedSumGrouped32 L=%d T=%d H=%d: [%d,%d] |Δ|=%g > %g", L, T, H, l, j, d, bound)
					}
				}
			}
		}

		// Ungrouped variants: identity grouping over an L-block encoder
		// must match the grouped kernels' arithmetic row for row.
		if S == 1 && L*T*H <= len(enc)*L {
			encT := make([]float32, L*T*H)
			for i := range encT {
				encT[i] = float32(r.NormFloat64())
			}
			scores := make([]float32, L*T)
			attnScores32(scores, dec, encT, L, T, H)
			for b := 0; b < L; b++ {
				for tt := 0; tt < T; tt++ {
					exact := 0.0
					cond := 0.0
					for j := 0; j < H; j++ {
						p := float64(dec[b*H+j]) * float64(encT[(b*T+tt)*H+j])
						exact += p
						cond += math.Abs(p)
					}
					bound := 2*float64(H+16)*eps*cond + 1e-40
					if d := math.Abs(float64(scores[b*T+tt]) - exact); d > bound {
						t.Fatalf("attnScores32: [%d,%d] |Δ|=%g > %g", b, tt, d, bound)
					}
				}
			}
			ctx := make([]float32, L*H)
			weightedSum32(ctx, alpha, encT, L, T, H)
			for b := 0; b < L; b++ {
				for j := 0; j < H; j++ {
					exact, cond := 0.0, 0.0
					for tt := 0; tt < T; tt++ {
						p := float64(alpha[b*T+tt]) * float64(encT[(b*T+tt)*H+j])
						exact += p
						cond += math.Abs(p)
					}
					bound := 2*float64(T+16)*eps*cond + 1e-40
					if d := math.Abs(float64(ctx[b*H+j]) - exact); d > bound {
						t.Fatalf("weightedSum32: [%d,%d] |Δ|=%g > %g", b, j, d, bound)
					}
				}
			}
		}
	}
}

// TestF32Transcendentals bounds the fast float32 approximations against
// the float64 stdlib over their full finite ranges, plus the saturation
// and special-value edges.
func TestF32Transcendentals(t *testing.T) {
	r := rand.New(rand.NewSource(67))
	// exp: relative error within a few float32 ulps over the finite range.
	for trial := 0; trial < 20000; trial++ {
		x := float32((r.Float64()*2 - 1) * 87)
		got := float64(expf32(x))
		want := math.Exp(float64(x))
		if rel := math.Abs(got-want) / want; rel > 1e-6 {
			t.Fatalf("expf32(%g) = %g, want %g (rel err %g)", x, got, want, rel)
		}
	}
	if v := expf32(89); !math.IsInf(float64(v), 1) {
		t.Fatalf("expf32(89) = %g, want +Inf", v)
	}
	if v := expf32(-90); v != 0 {
		t.Fatalf("expf32(-90) = %g, want 0", v)
	}
	if v := expf32(88.7); math.IsInf(float64(v), 1) || v < 3e38 {
		t.Fatalf("expf32(88.7) = %g, want finite near MaxFloat32", v)
	}
	if v := expf32(float32(math.NaN())); v == v {
		t.Fatalf("expf32(NaN) = %g, want NaN", v)
	}
	if v := expf32(0); v != 1 {
		t.Fatalf("expf32(0) = %g, want 1", v)
	}
	// tanh: absolute error bound (|tanh| <= 1).
	for trial := 0; trial < 20000; trial++ {
		x := float32((r.Float64()*2 - 1) * 12)
		got := float64(tanhf32(x))
		want := math.Tanh(float64(x))
		if d := math.Abs(got - want); d > 1e-6 {
			t.Fatalf("tanhf32(%g) = %g, want %g (|Δ|=%g)", x, got, want, d)
		}
	}
	if tanhf32(100) != 1 || tanhf32(-100) != -1 || tanhf32(0) != 0 {
		t.Fatal("tanhf32 saturation/zero edges wrong")
	}
	if v := tanhf32(float32(math.NaN())); v == v {
		t.Fatalf("tanhf32(NaN) = %g, want NaN", v)
	}
	// sigmoid: absolute error bound (range (0,1)).
	for trial := 0; trial < 20000; trial++ {
		x := float32((r.Float64()*2 - 1) * 40)
		got := float64(sigmoidf32(x))
		want := 1 / (1 + math.Exp(-float64(x)))
		if d := math.Abs(got - want); d > 1e-6 {
			t.Fatalf("sigmoidf32(%g) = %g, want %g (|Δ|=%g)", x, got, want, d)
		}
	}
}

// TestF32Dispatch is the f32 sibling of TestTrainingDispatchBitwise:
// recording tapes and the f64 forward tapes must keep producing float64
// results bitwise equal to their own kernels — the f32 flag must be
// unreachable from them — and only NewForwardF32 computes in float32.
// Training-only ops must refuse f32 tapes loudly.
func TestF32Dispatch(t *testing.T) {
	r := rand.New(rand.NewSource(71))
	const R, K, C = 8, 64, 48
	a := New(R, K)
	b := New(K, C)
	fillRand(r, a.W, 0)
	fillRand(r, b.W, 0)

	exact := make([]float64, R*C)
	matmul(exact, a.W, b.W, R, K, C)

	tapes := map[string]*Tape{
		"NewTape":     NewTape(),
		"NewTraining": NewTraining(NewPool()),
		"NewForward":  NewForward(nil),
	}
	for name, tape := range tapes {
		if tape.F32() {
			t.Fatalf("%s reports F32", name)
		}
		out := tape.MatMul(a, b)
		if len(out.W) != R*C || out.W32 != nil {
			t.Fatalf("%s MatMul produced f32 storage (len(W)=%d, W32=%v)", name, len(out.W), out.W32 != nil)
		}
		if !bitsEqual(out.W, exact) {
			t.Fatalf("%s MatMul diverged from the bitwise kernel", name)
		}
	}

	ft := NewForwardF32(NewPool())
	if !ft.F32() {
		t.Fatal("NewForwardF32 must report F32")
	}
	out := ft.MatMul(a, b)
	if len(out.W) != 0 || len(out.W32) != R*C {
		t.Fatalf("NewForwardF32 MatMul storage: len(W)=%d len(W32)=%d", len(out.W), len(out.W32))
	}
	// The f32 result must track the f64 one (sanity that weights were
	// actually converted and multiplied, not zeroed).
	for i := range exact {
		if d := math.Abs(float64(out.W32[i]) - exact[i]); d > 1e-3*math.Abs(exact[i])+1e-4 {
			t.Fatalf("f32 MatMul out[%d] = %g, f64 %g", i, out.W32[i], exact[i])
		}
	}

	// Training-only ops refuse f32 tapes.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("SoftmaxCrossEntropy on an f32 tape did not panic")
			}
		}()
		logits := New(2, 4)
		NewForwardF32(nil).SoftmaxCrossEntropy(logits, []int{0, 1}, []float64{1, 1})
	}()
}

// TestTrainingDispatchBitwise pins the semantic the dispatch must keep
// for training: the bitwise kernels skip zero multipliers, so a zeroed
// row of A against an Inf in B contributes nothing, while the f32
// kernels fuse every multiply-add and materialize IEEE NaN. Recording
// and f64 forward tapes must all take the skip-zero path.
func TestTrainingDispatchBitwise(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const R, K, C = 8, 64, 48
	a := New(R, K)
	b := New(K, C)
	fillRand(r, a.W, 0)
	fillRand(r, b.W, 0)
	for p := 0; p < K; p++ {
		a.W[p] = 0
	}
	b.W[0] = math.Inf(1)
	exact := make([]float64, R*C)
	matmul(exact, a.W, b.W, R, K, C)

	tapes := map[string]*Tape{
		"NewTape":     NewTape(),
		"NewTraining": NewTraining(NewPool()),
		"NewForward":  NewForward(nil),
	}
	for name, tape := range tapes {
		out := tape.MatMul(a, b)
		if !bitsEqual(out.W, exact) {
			t.Fatalf("%s MatMul diverged from the bitwise kernel", name)
		}
		for j := 0; j < C; j++ {
			if math.IsNaN(out.W[j]) {
				t.Fatalf("%s MatMul materialized NaN at [0,%d]: skip-zero semantics lost", name, j)
			}
		}
	}
	if out := NewForwardF32(nil).MatMul(a, b); !math.IsNaN(float64(out.W32[0])) {
		t.Fatal("f32 MatMul skipped 0×Inf; expected IEEE NaN (no skip-zero contract)")
	}
}

// TestF32PoolRecycling pins that f32 values round-trip the pool through
// their own free list: a released f32 buffer is reused for the next
// same-size f32 request, never handed to an f64 request, and the
// byte-based high-water mark accounts 4 bytes per f32 element.
func TestF32PoolRecycling(t *testing.T) {
	p := NewPool()
	v := p.get32(4, 8)
	if len(v.W32) != 32 || len(v.W) != 0 {
		t.Fatalf("get32 storage: len(W32)=%d len(W)=%d", len(v.W32), len(v.W))
	}
	if p.MaxBufferBytes() != 32*4 {
		t.Fatalf("MaxBufferBytes = %d, want %d", p.MaxBufferBytes(), 32*4)
	}
	v.W32[0] = 7
	p.put(v)
	v2 := p.get32(8, 4)
	if v2 != v {
		t.Fatal("released f32 buffer was not recycled for the next f32 request")
	}
	if v2.W32[0] != 0 {
		t.Fatal("recycled f32 buffer not zeroed")
	}
	p.put(v2)
	v3 := p.get(8, 4)
	if v3 == v {
		t.Fatal("f64 request was handed an f32 buffer")
	}
	if p.MaxBufferBytes() != 32*8 {
		t.Fatalf("MaxBufferBytes after f64 get = %d, want %d", p.MaxBufferBytes(), 32*8)
	}
}

// BenchmarkF32Kernels measures the float32 matmul kernels on the model's
// hot shapes; scripts/bench.sh records it in BENCH_infer.json.
func BenchmarkF32Kernels(b *testing.B) {
	shapes := []struct {
		name    string
		r, k, c int
	}{
		{"shard-lstm", 4, 64, 256},
		{"batch-lstm", 32, 64, 256},
		{"logits", 4, 64, 400},
		{"square", 64, 64, 64},
	}
	kernels := map[string]func(out, a, bm []float32, r, k, c int){
		"NN": matmul32, "NT": matmulNT32, "TN": matmulTN32,
	}
	for _, kn := range []string{"NN", "NT", "TN"} {
		for _, sh := range shapes {
			r, k, c := sh.r, sh.k, sh.c
			if kn == "TN" {
				r, k = k, r
			}
			var aLen, bLen int
			switch kn {
			case "NN":
				aLen, bLen = r*k, k*c
			case "NT":
				aLen, bLen = r*k, c*k
			case "TN":
				aLen, bLen = k*r, k*c
			}
			rng := rand.New(rand.NewSource(3))
			a := make([]float32, aLen)
			bm := make([]float32, bLen)
			randF32(rng, a)
			randF32(rng, bm)
			out := make([]float32, r*c)
			flops := float64(2 * r * k * c)
			fn := kernels[kn]
			b.Run(fmt.Sprintf("%s/%s/f32", kn, sh.name), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					fn(out, a, bm, r, k, c)
				}
				b.ReportMetric(flops*float64(b.N)/b.Elapsed().Seconds()/1e9, "gflops")
			})
		}
	}
}

// TestVExp32TracksScalar holds the vector exp body (VCVTPS2DQ
// nearest-even rounding, fused polynomial) to the scalar expf32 within
// a few ulps over the finite range, and pins the saturation and NaN
// edges exactly equal — the masks compare the original input, as the
// scalar does. Runs the asm path and the pure-Go fallback (which is
// expf32 itself, trivially exact).
func TestVExp32TracksScalar(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const n = 8 * 257
	x := make([]float32, n)
	for i := range x {
		// Whole finite range plus a dense band around zero where decode
		// arguments live.
		switch i % 3 {
		case 0:
			x[i] = float32(r.Float64()*175 - 87)
		case 1:
			x[i] = float32(r.NormFloat64() * 4)
		default:
			x[i] = float32(r.NormFloat64() * 30)
		}
	}
	asm, golang := withFMA32(func() []float32 {
		out := make([]float32, n)
		expv32(out, x)
		return out
	})
	for i := range x {
		want := expf32(x[i])
		if golang[i] != want {
			t.Fatalf("fallback expv32(%g) = %g, want scalar %g", x[i], golang[i], want)
		}
		if d := ulpDiff32(asm[i], want); d > 8 {
			t.Errorf("vector exp(%g) = %g, scalar %g: %d ulps apart", x[i], asm[i], want, d)
		}
	}

	edges := []float32{
		89, 1000, float32(math.Inf(1)), // overflow: +Inf
		-90, -1000, float32(math.Inf(-1)), // underflow: 0
		float32(math.NaN()), // NaN propagates
		0, 1, -1,
	}
	in := make([]float32, 8*2)
	for i := range in {
		in[i] = edges[i%len(edges)]
	}
	out := make([]float32, len(in))
	expv32(out, in)
	for i, x := range in {
		want := expf32(x)
		if want != want {
			if out[i] == out[i] {
				t.Errorf("vector exp(NaN) = %g, want NaN", out[i])
			}
			continue
		}
		if x > expMaxIn || x < expMinIn {
			if out[i] != want {
				t.Errorf("vector exp(%g) = %g, want exact saturation %g", x, out[i], want)
			}
		}
	}
}

// TestVAdd32Bitwise: the vector add kernel uses plain single-rounded
// additions, so unlike the FMA kernels it owes bitwise equality with
// the scalar loop at every length (vector body, 8-wide step, scalar
// tail).
func TestVAdd32Bitwise(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	for _, n := range []int{1, 7, 8, 9, 16, 23, 64, 100, 403} {
		a := make([]float32, n)
		b := make([]float32, n)
		for i := range a {
			a[i] = float32(r.NormFloat64() * float32Exp(r))
			b[i] = float32(r.NormFloat64() * float32Exp(r))
		}
		asm, golang := withFMA32(func() []float32 {
			out := make([]float32, n)
			vadd32(out, a, b)
			return out
		})
		for i := range asm {
			if math.Float32bits(asm[i]) != math.Float32bits(golang[i]) {
				t.Fatalf("n=%d i=%d: asm %g != go %g", n, i, asm[i], golang[i])
			}
			if want := a[i] + b[i]; math.Float32bits(golang[i]) != math.Float32bits(want) {
				t.Fatalf("n=%d i=%d: go %g != scalar %g", n, i, golang[i], want)
			}
		}
	}
}

// float32Exp draws a wide positive scale so sums hit many exponents.
func float32Exp(r *rand.Rand) float64 {
	return math.Exp(3 * r.NormFloat64())
}
