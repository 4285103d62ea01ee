package ad

import (
	"math"
	"math/bits"
	"math/rand"
	"testing"
)

// chain runs a representative op mix (the ones beam search executes) on
// the given tape and returns the final value.
func chain(t *Tape, a, b *V) *V {
	h := t.Tanh(t.MatMul(a, b))             // [2,3]
	h = t.Add(h, t.Sigmoid(h))              // same shape
	h = t.Mul(h, h)                         //
	cat := t.ConcatCols(h, t.Scale(h, 0.5)) // [2,6]
	s := t.SliceCols(cat, 1, 4)             // [2,3]
	r := t.Rows(s, []int{1, 0, 1})          // [3,3]
	sm := t.SoftmaxRowsMasked(r, []float64{1, 1, 0, 1, 0, 1, 1, 1, 1})
	stack := t.StackRows([]*V{r, s2r(t, s), r}) // [9,3], T=3 per example
	return t.WeightedSum(sm, stack, 3)          // [3,3]
}

// s2r pads a [2,3] value to [3,3] by gathering rows, keeping shapes
// aligned for the stacked attention ops above.
func s2r(t *Tape, s *V) *V {
	return t.Rows(s, []int{0, 1, 0})
}

// TestForwardTapeMatchesRecording runs the same computation on a
// recording tape, a pool-less forward tape, and a pooled forward tape
// (twice, to exercise reuse): all four results must be bitwise equal.
func TestForwardTapeMatchesRecording(t *testing.T) {
	r := rand.New(rand.NewSource(11))
	a := randV(r, 2, 4)
	b := randV(r, 4, 3)

	want := chain(NewTape(), a, b)
	if got := chain(NewForward(nil), a, b); !equalW(got, want) {
		t.Errorf("forward tape differs: %v vs %v", got.W, want.W)
	}
	pool := NewPool()
	first := chain(NewForward(pool), a, b)
	if !equalW(first, want) {
		t.Errorf("pooled tape differs: %v vs %v", first.W, want.W)
	}
	// Release everything and rerun on the warmed pool: recycled buffers
	// must be re-zeroed, so the result is still identical.
	tape := NewForward(pool)
	mark := tape.Mark()
	tape.ReleaseSince(mark) // no-op, empty scope
	got := chain(tape, a, b)
	snapshot := append([]float64(nil), got.W...)
	tape.ReleaseSince(mark)
	again := chain(tape, a, b)
	if !equalWSlice(again.W, snapshot) {
		t.Errorf("pool reuse corrupted results: %v vs %v", again.W, snapshot)
	}
	if !equalW(again, want) {
		t.Errorf("warmed pool differs from recording tape: %v vs %v", again.W, want.W)
	}
}

// TestReleaseSinceKeepsLiveValues checks that kept values survive one
// release round untouched and are recycled after they leave the keep set.
func TestReleaseSinceKeepsLiveValues(t *testing.T) {
	pool := NewPool()
	tape := NewForward(pool)
	a := randV(rand.New(rand.NewSource(3)), 2, 2)
	mark := tape.Mark()
	kept := tape.Tanh(a)
	before := append([]float64(nil), kept.W...)
	dropped := tape.Sigmoid(a)
	_ = dropped
	tape.ReleaseSince(mark, kept)
	// A new allocation of the same size must not alias the kept value.
	fresh := tape.Scale(a, 2)
	if fresh == kept {
		t.Fatal("kept value was recycled")
	}
	if !equalWSlice(kept.W, before) {
		t.Errorf("kept value overwritten: %v vs %v", kept.W, before)
	}
	// Once dropped from the keep set, the value's storage is reusable.
	tape.ReleaseSince(mark)
	reused := tape.Scale(a, 3)
	if reused != kept && reused != fresh {
		t.Error("released storage not reused")
	}
}

// TestReleaseSinceSparesOuterScope: values allocated before a mark keep
// their bits, and are never handed out again, however many same-sized
// values are allocated and released inside the scope — including
// through a nested scope released first.
func TestReleaseSinceSparesOuterScope(t *testing.T) {
	for _, f32 := range []bool{false, true} {
		pool := NewPool()
		tape := NewForward(pool)
		if f32 {
			tape = NewForwardF32(pool)
		}
		a := randV(rand.New(rand.NewSource(7)), 3, 4)
		outer := tape.Tanh(a)
		want := *outer
		want.W = append([]float64(nil), outer.W...)
		want.W32 = append([]float32(nil), outer.W32...)
		mark := tape.Mark()
		for step := 0; step < 4; step++ {
			x := tape.Scale(a, float64(step+2))
			inner := tape.Mark()
			tape.Sigmoid(x)
			tape.ReleaseSince(inner)
			y := tape.Add(x, outer)
			if x == outer || y == outer {
				t.Fatalf("f32=%v step %d: outer-scope value handed out again", f32, step)
			}
			tape.ReleaseSince(mark, y)
		}
		tape.ReleaseSince(mark)
		if !equalW(outer, &want) {
			t.Errorf("f32=%v: outer-scope value changed: %v%v vs %v%v", f32, outer.W, outer.W32, want.W, want.W32)
		}
	}
}

// TestReleaseSinceNoDoublePut drives nested scopes, repeated and
// duplicate keep entries, and a final Reset, then checks that every
// value the tape drew sits in the pool's free lists exactly once — a
// value put twice would later back two live values at once.
func TestReleaseSinceNoDoublePut(t *testing.T) {
	pool := NewPool()
	tape := NewForward(pool)
	a := randV(rand.New(rand.NewSource(9)), 2, 3)
	drawn := map[*V]bool{}
	op := func(v *V) *V { drawn[v] = true; return v }
	outer := tape.Mark()
	state := op(tape.Tanh(a))
	for step := 0; step < 6; step++ {
		mark := tape.Mark()
		x := op(tape.Add(state, a))
		inner := tape.Mark()
		op(tape.Sigmoid(x))
		op(tape.Scale(x, 2))
		tape.ReleaseSince(inner, x) // x lies before inner: untouched
		next := op(tape.Mul(x, state))
		tape.ReleaseSince(mark, next, next, state)
		tape.ReleaseSince(outer, next, state)
		state = next
	}
	tape.Reset()
	seen := map[*V]int{}
	for _, vs := range pool.free {
		for _, v := range vs {
			seen[v]++
		}
	}
	for v, n := range seen {
		if n != 1 {
			t.Errorf("value %p is in the pool %d times", v, n)
		}
		if !drawn[v] {
			t.Errorf("value %p in the pool was never drawn", v)
		}
	}
	for v := range drawn {
		if seen[v] == 0 {
			t.Errorf("value %p was drawn but never returned", v)
		}
	}
}

// TestReleaseSinceNoopOnRecordingTape: on a pooled recording tape a
// scoped release must change nothing — the backward pass still sees
// every intermediate, the step's loss and gradients are bitwise those of
// the same step without the release, and Reset still returns every
// value, so a warmed tape draws all of its storage from the pool.
func TestReleaseSinceNoopOnRecordingTape(t *testing.T) {
	r := rand.New(rand.NewSource(29))
	w1, w2 := randV(r, 4, 6), randV(r, 6, 5)
	x := randV(r, 3, 4)
	step := func(tape *Tape, release bool) (float64, int) {
		w1.ZeroGrad()
		w2.ZeroGrad()
		mark := tape.Mark()
		h := tape.Tanh(tape.MatMul(x, w1))
		if release {
			tape.ReleaseSince(mark, h)
		}
		loss := tape.SoftmaxCrossEntropy(tape.MatMul(h, w2), []int{1, 0, 4}, []float64{1, 1, 1})
		loss.G[0] = 1
		tape.Backward()
		return loss.W[0], len(tape.live)
	}
	plain := NewTraining(NewPool())
	wantLoss, wantLive := step(plain, false)
	wantG1 := append([]float64(nil), w1.G...)
	wantG2 := append([]float64(nil), w2.G...)

	tape := NewTraining(NewPool())
	for run := 0; run < 3; run++ {
		loss, live := step(tape, true)
		if math.Float64bits(loss) != math.Float64bits(wantLoss) {
			t.Fatalf("run %d: loss %v, want %v", run, loss, wantLoss)
		}
		if !equalWSlice(w1.G, wantG1) || !equalWSlice(w2.G, wantG2) {
			t.Fatalf("run %d: gradients differ from the step without a release", run)
		}
		if live != wantLive {
			t.Fatalf("run %d: tape tracks %d values after the release, want all %d", run, live, wantLive)
		}
		tape.Reset()
	}
	withRelease := testing.AllocsPerRun(50, func() { step(tape, true); tape.Reset() })
	without := testing.AllocsPerRun(50, func() { step(plain, false); plain.Reset() })
	if withRelease != without {
		t.Errorf("warmed step allocates %.1f times with a release, %.1f without: released values escaped Reset", withRelease, without)
	}
}

// TestPoolSizeClassesBoundRetention: buffers whose size follows the
// input must not pin one buffer per size ever seen. A pool that served
// every element count from 1 to 1536 in turn retains at most one buffer
// per size class (four per power of two), and a recycled buffer comes
// back resliced to exactly the requested length and zeroed, including a
// tail that held data when the buffer last served a larger value.
func TestPoolSizeClassesBoundRetention(t *testing.T) {
	const maxN = 1536
	for _, f32 := range []bool{false, true} {
		pool := NewPool()
		tape := NewForward(pool)
		if f32 {
			tape = NewForwardF32(pool)
		}
		mark := tape.Mark()
		fill := func(v *V, x float64) {
			for i := range v.W {
				v.W[i] = x
			}
			for i := range v.W32 {
				v.W32[i] = float32(x)
			}
		}
		zero := func(v *V, n int) bool {
			if v.Elems() != n {
				return false
			}
			for _, x := range v.W {
				if x != 0 {
					return false
				}
			}
			for _, x := range v.W32 {
				if x != 0 {
					return false
				}
			}
			return true
		}
		for n := 1; n <= maxN; n++ {
			v := tape.new(1, n)
			if !zero(v, n) {
				t.Fatalf("f32=%v: value of %d elements not zeroed to its length", f32, n)
			}
			fill(v, float64(n))
			tape.ReleaseSince(mark)
		}
		retained := 0
		for _, vs := range pool.free {
			retained += len(vs)
		}
		for _, vs := range pool.free32 {
			retained += len(vs)
		}
		if limit := 8 + 4*bits.Len(maxN); retained > limit {
			t.Errorf("f32=%v: pool retains %d buffers after serving every size up to %d, want at most %d (one per size class)", f32, retained, maxN, limit)
		}

		big := tape.new(10, 10)
		fill(big, 7)
		tape.ReleaseSince(mark)
		small := tape.new(1, 97)
		if small != big || !zero(small, 97) {
			t.Fatalf("f32=%v: a 97-element value did not reuse the released 100-element buffer zeroed", f32)
		}
		fill(small, 9)
		tape.ReleaseSince(mark)
		if again := tape.new(4, 25); again != big || !zero(again, 100) {
			t.Fatalf("f32=%v: buffer regrown to 100 elements kept stale data past the 97 it last held", f32)
		}
	}
}

// TestClassOrdinalDense: the pool's free lists are indexed by size-class
// ordinal, so every element count must share its class's ordinal, and
// the ordinals must number the classes 0, 1, 2, … in increasing order.
func TestClassOrdinalDense(t *testing.T) {
	prev, prevOrd := 0, 0
	for n := 1; n <= 1<<16; n++ {
		cls := sizeClass(n)
		if o, oc := classOrdinal(n), classOrdinal(cls); o != oc {
			t.Fatalf("classOrdinal(%d) = %d, its class %d has %d", n, o, cls, oc)
		}
		if cls == prev {
			continue
		}
		if o := classOrdinal(cls); o != prevOrd+1 {
			t.Fatalf("class %d after %d has ordinal %d, want %d", cls, prev, o, prevOrd+1)
		}
		prev, prevOrd = cls, prevOrd+1
	}
}

// TestForwardTapeRecordsNothing ensures inference tapes stay empty.
func TestForwardTapeRecordsNothing(t *testing.T) {
	tape := NewForward(NewPool())
	a := randV(rand.New(rand.NewSource(5)), 3, 3)
	chain(tape, a, a)
	if tape.Len() != 0 {
		t.Errorf("forward tape recorded %d ops", tape.Len())
	}
	if tape.Recording() {
		t.Error("forward tape claims to be recording")
	}
	if !NewTape().Recording() {
		t.Error("recording tape claims not to be")
	}
}

// equalW reports whether a and b have the same shape and bitwise-equal
// storage in both precisions.
func equalW(a, b *V) bool {
	if a.R != b.R || a.C != b.C || !equalWSlice(a.W, b.W) || len(a.W32) != len(b.W32) {
		return false
	}
	for i := range a.W32 {
		if math.Float32bits(a.W32[i]) != math.Float32bits(b.W32[i]) {
			return false
		}
	}
	return true
}

func equalWSlice(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestMatMulLeadingMatchesMatMul: on f64 and f32 forward tapes the
// leading n rows of MatMulLeading are MatMul's bit for bit, whatever
// the band/remainder split of n against the full height, and the
// remaining rows are zero; a recording tape refuses the op.
func TestMatMulLeadingMatchesMatMul(t *testing.T) {
	r := rand.New(rand.NewSource(61))
	for _, shape := range [][3]int{{8, 48, 128}, {7, 33, 12}, {5, 64, 256}, {3, 5, 7}} {
		R, K, C := shape[0], shape[1], shape[2]
		a, b := randV(r, R, K), randV(r, K, C)
		a.W[1] = 0 // a zero multiplier takes the kernels' skip path
		a.SyncF32()
		b.SyncF32()
		for _, mk := range []func(*Pool) *Tape{NewForward, NewForwardF32} {
			tape := mk(NewPool())
			full := tape.MatMul(a, b)
			for n := 0; n <= R; n++ {
				got := tape.MatMulLeading(a, b, n)
				if tape.F32() {
					for i, x := range got.W32 {
						want := float32(0)
						if i < n*C {
							want = full.W32[i]
						}
						if math.Float32bits(x) != math.Float32bits(want) {
							t.Fatalf("f32 %v n=%d: element %d is %v, want %v", shape, n, i, x, want)
						}
					}
					continue
				}
				for i, x := range got.W {
					want := 0.0
					if i < n*C {
						want = full.W[i]
					}
					if math.Float64bits(x) != math.Float64bits(want) {
						t.Fatalf("f64 %v n=%d: element %d is %v, want %v", shape, n, i, x, want)
					}
				}
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("MatMulLeading on a recording tape did not panic")
		}
	}()
	NewTape().MatMulLeading(New(2, 2), New(2, 2), 1)
}

// TestZerosDrawsTapeStorage: Zeros hands out zeroed storage in the
// tape's precision — float32 only on f32 tapes, with gradient storage on
// recording tapes — recycled through the pool like any op output.
func TestZerosDrawsTapeStorage(t *testing.T) {
	pool := NewPool()
	f32 := NewForwardF32(pool)
	mark := f32.Mark()
	z := f32.Zeros(3, 8)
	if len(z.W32) != 24 || len(z.W) != 0 || len(z.G) != 0 {
		t.Fatalf("f32 Zeros storage: W32 %d, W %d, G %d", len(z.W32), len(z.W), len(z.G))
	}
	z.W32[5] = 1
	f32.ReleaseSince(mark)
	if again := f32.Zeros(3, 8); again != z || again.W32[5] != 0 {
		t.Fatal("f32 Zeros did not recycle zeroed pool storage")
	}
	if z := NewForward(nil).Zeros(2, 4); len(z.W) != 8 || len(z.G) != 0 {
		t.Fatalf("f64 forward Zeros storage: W %d, G %d", len(z.W), len(z.G))
	}
	for _, tape := range []*Tape{NewTape(), NewTraining(NewPool())} {
		if z := tape.Zeros(2, 4); len(z.W) != 8 || len(z.G) != 8 {
			t.Fatalf("recording Zeros storage: W %d, G %d", len(z.W), len(z.G))
		}
	}
}
