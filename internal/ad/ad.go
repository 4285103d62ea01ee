// Package ad implements reverse-mode automatic differentiation over dense
// float64 matrices: the minimal tensor substrate needed to train the
// paper's bidirectional-LSTM encoder / attention-decoder model in pure Go.
// A Tape records backward closures during the forward pass; Backward runs
// them in reverse order, accumulating gradients into each value's G slice.
package ad

import (
	"fmt"
	"math"
)

// V is a matrix value with storage for its gradient. Values participating
// in training (parameters) are long-lived; intermediate values are created
// per forward pass.
//
// A value carries float64 storage (W), float32 storage (W32), or both.
// Training and full-precision inference use W exclusively; f32 forward
// tapes (NewForwardF32) compute entirely in W32. Long-lived parameters
// gain a cached W32 view via SyncF32 once, at precision-selection time,
// so the f32 decode path never converts weights per step. A value loaded
// directly from a quantized model for f32 serving may have W32 only.
type V struct {
	R, C int
	W    []float64 // row-major values
	G    []float64 // gradient, same shape
	W32  []float32 // float32 values (f32 inference engine storage)
}

// New allocates a zero matrix.
func New(r, c int) *V {
	return &V{R: r, C: c, W: make([]float64, r*c), G: make([]float64, r*c)}
}

// FromSlice wraps data (length r*c) into a value; the slice is used
// directly, not copied.
func FromSlice(r, c int, data []float64) *V {
	if len(data) != r*c {
		panic(fmt.Sprintf("ad: FromSlice %dx%d with %d elements", r, c, len(data)))
	}
	return &V{R: r, C: c, W: data, G: make([]float64, r*c)}
}

// Elems returns the number of scalar elements the value stores,
// regardless of which precision backs it.
func (v *V) Elems() int {
	if len(v.W) > 0 {
		return len(v.W)
	}
	return len(v.W32)
}

// SyncF32 materializes (or refreshes) the value's float32 view from its
// float64 weights. Models call it once per parameter when an f32
// inference engine is selected, so shared weights are converted exactly
// once; it must not race with concurrent readers of W32 (convert before
// serving, like SetPrecision). Values without f64 storage keep their
// W32 as is.
func (v *V) SyncF32() {
	if len(v.W) == 0 {
		return
	}
	if len(v.W32) != len(v.W) {
		v.W32 = make([]float32, len(v.W))
	}
	for i, x := range v.W {
		v.W32[i] = float32(x)
	}
}

// f32w returns v's float32 storage, converting lazily from W when
// absent. Lazy conversion serves per-call constants (zero states,
// pooling weights) that are goroutine-local; long-lived shared values
// must be converted eagerly via SyncF32 before concurrent f32 use.
func f32w(v *V) []float32 {
	if v.W32 != nil {
		return v.W32
	}
	v.SyncF32()
	return v.W32
}

// At returns the element at row i, column j.
func (v *V) At(i, j int) float64 { return v.W[i*v.C+j] }

// Set assigns the element at row i, column j.
func (v *V) Set(i, j int, x float64) { v.W[i*v.C+j] = x }

// ZeroGrad clears the gradient.
func (v *V) ZeroGrad() {
	for i := range v.G {
		v.G[i] = 0
	}
}

// Tape records the backward pass. A recording tape (NewTape) retains a
// backward closure — and therefore every intermediate value — for each
// op, which is what training needs and exactly what inference must not
// do: a beam search that appends maxLen × width decode steps to one
// recording tape holds the whole search in memory. A forward tape
// (NewForward) records nothing and can recycle intermediate storage
// between decode steps through a Pool.
type Tape struct {
	backward []func()
	// grad marks a recording tape; forward tapes skip all backward
	// bookkeeping.
	grad bool
	// pool recycles value storage on forward tapes (may be nil).
	pool *Pool
	// live tracks pool-eligible values allocated since the last Keep or
	// ReleaseExcept.
	live []*V
	// f32 marks a single-precision forward tape (NewForwardF32): every
	// op computes in float32 (V.W32) through the kernels in
	// kernels_f32.go. Only the forward-only constructor sets it and every
	// dispatch additionally requires !grad, so recording tapes provably
	// cannot reach the f32 kernels (TestF32Dispatch).
	f32 bool
}

// NewTape returns an empty recording tape for training.
func NewTape() *Tape { return &Tape{grad: true} }

// NewTraining returns a recording tape that draws intermediate values
// (with gradient storage) from pool and returns them on Reset. A
// training loop that runs one forward+backward per shard on such a tape
// allocates a steady state once and then recycles it every step. pool
// may be nil, which degrades to NewTape behavior.
func NewTraining(pool *Pool) *Tape { return &Tape{grad: true, pool: pool} }

// NewForward returns a forward-only tape: no backward closures are
// recorded, so intermediates become garbage as soon as they are
// unreferenced. pool (may be nil) additionally allows explicit storage
// reuse via ReleaseExcept.
func NewForward(pool *Pool) *Tape { return &Tape{pool: pool} }

// NewForwardF32 returns a forward-only single-precision tape: every op
// computes in float32 storage (V.W32) with fused-rounding 8-lane
// kernels and fast float32 transcendentals (kernels_f32.go). It is the
// approximate engine beside exact-f64: deterministic for a given input
// and host, but a different numeric contract governed by the accbudget
// harness. There is deliberately no recording variant —
// training stays float64 on the bitwise kernels — and inputs' float64
// weights must be synced once via SyncF32 (Model.SetPrecision does)
// before concurrent use.
func NewForwardF32(pool *Pool) *Tape { return &Tape{pool: pool, f32: true} }

// Recording reports whether the tape retains a backward pass.
func (t *Tape) Recording() bool { return t.grad }

// F32 reports whether the tape computes in single precision.
func (t *Tape) F32() bool { return t.f32 && !t.grad }

// new allocates an op output: with gradient storage on recording tapes,
// gradient-free on forward tapes; pool-recycled on pooled tapes.
func (t *Tape) new(r, c int) *V {
	if t.grad {
		if t.pool == nil {
			return New(r, c)
		}
		v := t.pool.getGrad(r, c)
		t.live = append(t.live, v)
		return v
	}
	var v *V
	if t.f32 {
		if t.pool != nil {
			v = t.pool.get32(r, c)
		} else {
			v = &V{R: r, C: c, W32: make([]float32, r*c)}
		}
	} else if t.pool != nil {
		v = t.pool.get(r, c)
	} else {
		v = &V{R: r, C: c, W: make([]float64, r*c)}
	}
	t.live = append(t.live, v)
	return v
}

// scratch allocates an n-element float buffer with the same lifetime as
// the tape's op outputs: pool-recycled where the tape is pooled. Ops use
// it for internal state (softmax probabilities, dropout masks) that the
// backward closure needs but that is not itself a differentiable value.
func (t *Tape) scratch(n int) []float64 {
	if t.pool == nil {
		return make([]float64, n)
	}
	v := t.pool.get(n, 1)
	t.live = append(t.live, v)
	return v.W
}

// scratch32 is scratch for single-precision tapes: an n-element float32
// buffer recycled through the pool where the tape is pooled.
func (t *Tape) scratch32(n int) []float32 {
	if t.pool == nil {
		return make([]float32, n)
	}
	v := t.pool.get32(n, 1)
	t.live = append(t.live, v)
	return v.W32
}

// Keep marks every value allocated on the tape so far as permanent:
// later ReleaseExcept calls will not recycle them. Beam search calls it
// once after encoding, so the encoder outputs survive all decode steps.
func (t *Tape) Keep() { t.live = t.live[:0] }

// ReleaseExcept returns the values allocated since the last Keep or
// ReleaseExcept to the tape's pool, except those listed in keep, which
// stay tracked and are recycled by a later call once dropped from the
// keep set. No-op on recording tapes (the backward pass needs every
// value) and on pool-less forward tapes (the garbage collector already
// reclaims unreferenced values).
func (t *Tape) ReleaseExcept(keep ...*V) {
	if t.grad || t.pool == nil {
		t.live = t.live[:0]
		return
	}
	kept := t.live[:0]
scan:
	for _, v := range t.live {
		// Keep lists are a handful of surviving states; a linear scan
		// beats allocating a set every decode step.
		for _, k := range keep {
			if v == k {
				kept = append(kept, v)
				continue scan
			}
		}
		t.pool.put(v)
	}
	t.live = kept
}

// Reset returns every value the tape allocated to its pool and clears
// the recorded backward pass, retaining slice capacity. Externally
// created values (parameters) are untouched. Training shard workers call
// it between shards so each step reuses the previous step's storage; do
// not mix with Keep, which hides values from Reset.
func (t *Tape) Reset() {
	if t.pool != nil {
		for _, v := range t.live {
			t.pool.put(v)
		}
	}
	t.live = t.live[:0]
	for i := range t.backward {
		t.backward[i] = nil
	}
	t.backward = t.backward[:0]
}

func (t *Tape) record(f func()) {
	t.backward = append(t.backward, f)
}

// Backward runs all recorded backward closures in reverse order. Seed the
// output gradient (typically loss.G[0] = 1) before calling.
func (t *Tape) Backward() {
	for i := len(t.backward) - 1; i >= 0; i-- {
		t.backward[i]()
	}
}

// Len reports the number of recorded operations (useful in tests).
func (t *Tape) Len() int { return len(t.backward) }

// MatMul returns a @ b, with a [R,K] and b [K,C].
func (t *Tape) MatMul(a, b *V) *V {
	if a.C != b.R {
		panic(fmt.Sprintf("ad: MatMul %dx%d @ %dx%d", a.R, a.C, b.R, b.C))
	}
	if t.f32 && !t.grad {
		return t.matMulF32(a, b)
	}
	out := t.new(a.R, b.C)
	matmul(out.W, a.W, b.W, a.R, a.C, b.C)
	if !t.grad {
		return out
	}
	t.record(func() {
		// dA += dOut @ B^T ; dB += A^T @ dOut
		matmulNT(a.G, out.G, b.W, a.R, b.C, a.C)
		matmulTN(b.G, a.W, out.G, a.C, a.R, b.C)
	})
	return out
}

// Add returns a + b. b may be a [1,C] row vector, broadcast over a's rows.
func (t *Tape) Add(a, b *V) *V {
	if t.f32 && !t.grad {
		return t.addF32(a, b)
	}
	if b.R == 1 && a.C == b.C && a.R != 1 {
		out := t.new(a.R, a.C)
		for i := 0; i < a.R; i++ {
			for j := 0; j < a.C; j++ {
				out.W[i*a.C+j] = a.W[i*a.C+j] + b.W[j]
			}
		}
		if t.grad {
			t.record(func() {
				for i := 0; i < a.R; i++ {
					for j := 0; j < a.C; j++ {
						g := out.G[i*a.C+j]
						a.G[i*a.C+j] += g
						b.G[j] += g
					}
				}
			})
		}
		return out
	}
	sameShape("Add", a, b)
	out := t.new(a.R, a.C)
	for i := range out.W {
		out.W[i] = a.W[i] + b.W[i]
	}
	if t.grad {
		t.record(func() {
			for i := range out.G {
				a.G[i] += out.G[i]
				b.G[i] += out.G[i]
			}
		})
	}
	return out
}

// Sub returns a - b (same shape).
func (t *Tape) Sub(a, b *V) *V {
	sameShape("Sub", a, b)
	if t.f32 && !t.grad {
		return t.subF32(a, b)
	}
	out := t.new(a.R, a.C)
	for i := range out.W {
		out.W[i] = a.W[i] - b.W[i]
	}
	if t.grad {
		t.record(func() {
			for i := range out.G {
				a.G[i] += out.G[i]
				b.G[i] -= out.G[i]
			}
		})
	}
	return out
}

// Mul returns the elementwise product a * b.
func (t *Tape) Mul(a, b *V) *V {
	sameShape("Mul", a, b)
	if t.f32 && !t.grad {
		return t.mulF32(a, b)
	}
	out := t.new(a.R, a.C)
	for i := range out.W {
		out.W[i] = a.W[i] * b.W[i]
	}
	if t.grad {
		t.record(func() {
			for i := range out.G {
				a.G[i] += out.G[i] * b.W[i]
				b.G[i] += out.G[i] * a.W[i]
			}
		})
	}
	return out
}

// Scale returns a * s for a scalar constant s.
func (t *Tape) Scale(a *V, s float64) *V {
	if t.f32 && !t.grad {
		return t.scaleF32(a, s)
	}
	out := t.new(a.R, a.C)
	for i := range out.W {
		out.W[i] = a.W[i] * s
	}
	if t.grad {
		t.record(func() {
			for i := range out.G {
				a.G[i] += out.G[i] * s
			}
		})
	}
	return out
}

// Sigmoid returns the elementwise logistic function.
func (t *Tape) Sigmoid(a *V) *V {
	if t.f32 && !t.grad {
		return t.sigmoidF32(a)
	}
	out := t.new(a.R, a.C)
	for i := range out.W {
		out.W[i] = 1 / (1 + math.Exp(-a.W[i]))
	}
	if t.grad {
		t.record(func() {
			for i := range out.G {
				y := out.W[i]
				a.G[i] += out.G[i] * y * (1 - y)
			}
		})
	}
	return out
}

// Tanh returns the elementwise hyperbolic tangent.
func (t *Tape) Tanh(a *V) *V {
	if t.f32 && !t.grad {
		return t.tanhF32(a)
	}
	out := t.new(a.R, a.C)
	for i := range out.W {
		out.W[i] = math.Tanh(a.W[i])
	}
	if t.grad {
		t.record(func() {
			for i := range out.G {
				y := out.W[i]
				a.G[i] += out.G[i] * (1 - y*y)
			}
		})
	}
	return out
}

// ConcatCols concatenates matrices with equal row counts along columns.
func (t *Tape) ConcatCols(vs ...*V) *V {
	r := vs[0].R
	c := 0
	for _, v := range vs {
		if v.R != r {
			panic("ad: ConcatCols with mismatched rows")
		}
		c += v.C
	}
	if t.f32 && !t.grad {
		return t.concatColsF32(r, c, vs)
	}
	out := t.new(r, c)
	off := 0
	for _, v := range vs {
		for i := 0; i < r; i++ {
			copy(out.W[i*c+off:i*c+off+v.C], v.W[i*v.C:(i+1)*v.C])
		}
		off += v.C
	}
	if t.grad {
		t.record(func() {
			off := 0
			for _, v := range vs {
				for i := 0; i < r; i++ {
					for j := 0; j < v.C; j++ {
						v.G[i*v.C+j] += out.G[i*c+off+j]
					}
				}
				off += v.C
			}
		})
	}
	return out
}

// SliceCols returns columns [lo, hi) as a new value.
func (t *Tape) SliceCols(a *V, lo, hi int) *V {
	if lo < 0 || hi > a.C || lo >= hi {
		panic(fmt.Sprintf("ad: SliceCols [%d,%d) of %d cols", lo, hi, a.C))
	}
	if t.f32 && !t.grad {
		return t.sliceColsF32(a, lo, hi)
	}
	out := t.new(a.R, hi-lo)
	for i := 0; i < a.R; i++ {
		copy(out.W[i*out.C:(i+1)*out.C], a.W[i*a.C+lo:i*a.C+hi])
	}
	if t.grad {
		t.record(func() {
			for i := 0; i < a.R; i++ {
				for j := 0; j < out.C; j++ {
					a.G[i*a.C+lo+j] += out.G[i*out.C+j]
				}
			}
		})
	}
	return out
}

// Rows gathers the given rows of a into a new matrix (used for embedding
// lookup); backward scatter-adds.
func (t *Tape) Rows(a *V, idx []int) *V {
	if t.f32 && !t.grad {
		return t.rowsF32(a, idx)
	}
	out := t.new(len(idx), a.C)
	for i, id := range idx {
		if id < 0 || id >= a.R {
			panic(fmt.Sprintf("ad: Rows index %d out of %d", id, a.R))
		}
		copy(out.W[i*a.C:(i+1)*a.C], a.W[id*a.C:(id+1)*a.C])
	}
	if t.grad {
		ids := append([]int(nil), idx...)
		t.record(func() {
			for i, id := range ids {
				for j := 0; j < a.C; j++ {
					a.G[id*a.C+j] += out.G[i*a.C+j]
				}
			}
		})
	}
	return out
}

// Dropout zeroes elements with probability p and scales survivors by
// 1/(1-p) (inverted dropout). rng must be a deterministic source; pass
// p=0 (or train=false at the layer level) to disable.
func (t *Tape) Dropout(a *V, p float64, rng func() float64) *V {
	if p <= 0 {
		return a
	}
	if t.f32 && !t.grad {
		return t.dropoutF32(a, p, rng)
	}
	out := t.new(a.R, a.C)
	mask := t.scratch(len(a.W))
	scale := 1 / (1 - p)
	for i := range a.W {
		if rng() >= p {
			mask[i] = scale
			out.W[i] = a.W[i] * scale
		}
	}
	if t.grad {
		t.record(func() {
			for i := range out.G {
				a.G[i] += out.G[i] * mask[i]
			}
		})
	}
	return out
}

func sameShape(op string, a, b *V) {
	if a.R != b.R || a.C != b.C {
		panic(fmt.Sprintf("ad: %s shape mismatch %dx%d vs %dx%d", op, a.R, a.C, b.R, b.C))
	}
}
