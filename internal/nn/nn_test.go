package nn

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/ad"
)

func TestParamsRegistry(t *testing.T) {
	var p Params
	r := rand.New(rand.NewSource(1))
	NewLinear(&p, "l1", r, 4, 3)
	NewEmbedding(&p, "emb", r, 10, 4)
	if p.Count() != 4*3+3+10*4 {
		t.Errorf("Count = %d", p.Count())
	}
	defer func() {
		if recover() == nil {
			t.Error("duplicate name should panic")
		}
	}()
	NewLinear(&p, "l1", r, 2, 2)
}

func TestLinearShapes(t *testing.T) {
	var p Params
	r := rand.New(rand.NewSource(2))
	l := NewLinear(&p, "l", r, 4, 3)
	tape := ad.NewTape()
	x := ad.New(5, 4)
	y := l.Apply(tape, x)
	if y.R != 5 || y.C != 3 {
		t.Errorf("shape = %dx%d", y.R, y.C)
	}
}

// TestLSTMStep checks the step's shapes, |h| < 1 and the masked-hold
// rule on a recording tape (the composite ops) and on a pooled forward
// tape (the fused cell). A masked row holds its state bit for bit even
// when its input drives every pre-activation to NaN or ±Inf.
func TestLSTMStep(t *testing.T) {
	var p Params
	r := rand.New(rand.NewSource(3))
	l := NewLSTM(&p, "lstm", r, 4, 6)
	x := ad.New(3, 4)
	for i := range x.W {
		x.W[i] = r.NormFloat64()
	}
	// Row 2's input holds NaN and ±Inf: a live step there would spread
	// them through every gate.
	bad := ad.New(3, 4)
	copy(bad.W, x.W)
	copy(bad.W[8:], []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.NaN()})
	for _, tape := range []*ad.Tape{ad.NewTape(), ad.NewForward(ad.NewPool())} {
		name := "recording"
		if !tape.Recording() {
			name = "forward"
		}
		s1 := l.Step(tape, x, l.ZeroState(tape, 3))
		if s1.H.R != 3 || s1.H.C != 6 || s1.C.R != 3 || s1.C.C != 6 {
			t.Fatalf("%s: state shapes wrong", name)
		}
		// Hidden values bounded by tanh.
		for _, h := range s1.H.W {
			if math.Abs(h) >= 1 {
				t.Errorf("%s: |h| = %g >= 1", name, h)
			}
		}
		// Masked step holds state for masked examples, bit for bit.
		s2 := l.StepMasked(tape, bad, s1, []float64{1, 0, 0})
		for i := 1; i < 3; i++ {
			for j := 0; j < 6; j++ {
				if math.Float64bits(s2.H.At(i, j)) != math.Float64bits(s1.H.At(i, j)) ||
					math.Float64bits(s2.C.At(i, j)) != math.Float64bits(s1.C.At(i, j)) {
					t.Errorf("%s: masked example %d state changed", name, i)
				}
			}
		}
		for j := 0; j < 6; j++ {
			if s2.H.At(0, j) == s1.H.At(0, j) {
				t.Errorf("%s: unmasked example state frozen", name)
			}
		}
	}
}

// TestLSTMLearnsToggle trains a tiny LSTM + classifier to detect whether a
// specific token appears in a sequence — learning must drive the loss down
// and reach perfect accuracy on this separable toy task.
func TestLSTMLearnsToggle(t *testing.T) {
	r := rand.New(rand.NewSource(4))
	var p Params
	emb := NewEmbedding(&p, "emb", r, 5, 8)
	lstm := NewLSTM(&p, "lstm", r, 8, 12)
	out := NewLinear(&p, "out", r, 12, 2)
	opt := NewAdam(&p, 0.01)

	gen := func() ([]int, int) {
		seq := make([]int, 6)
		label := 0
		for i := range seq {
			seq[i] = 1 + r.Intn(3)
		}
		if r.Intn(2) == 0 {
			seq[r.Intn(len(seq))] = 4 // the marker token
			label = 1
		}
		return seq, label
	}

	var firstLoss, lastLoss float64
	for step := 0; step < 300; step++ {
		seq, label := gen()
		tape := ad.NewTape()
		s := lstm.ZeroState(tape, 1)
		for _, tok := range seq {
			x := emb.Lookup(tape, []int{tok})
			s = lstm.Step(tape, x, s)
		}
		logits := out.Apply(tape, s.H)
		loss := tape.SoftmaxCrossEntropy(logits, []int{label}, []float64{1})
		if step == 0 {
			firstLoss = loss.W[0]
		}
		lastLoss = loss.W[0]
		p.ZeroGrad()
		loss.G[0] = 1
		tape.Backward()
		opt.Step()
	}
	if lastLoss >= firstLoss {
		t.Errorf("loss did not decrease: %g -> %g", firstLoss, lastLoss)
	}
	// Evaluate.
	correct := 0
	for i := 0; i < 50; i++ {
		seq, label := gen()
		tape := ad.NewTape()
		s := lstm.ZeroState(tape, 1)
		for _, tok := range seq {
			s = lstm.Step(tape, emb.Lookup(tape, []int{tok}), s)
		}
		logits := out.Apply(tape, s.H)
		pred := 0
		if logits.At(0, 1) > logits.At(0, 0) {
			pred = 1
		}
		if pred == label {
			correct++
		}
	}
	if correct < 45 {
		t.Errorf("toy task accuracy %d/50", correct)
	}
}

func TestAdamConvergesQuadratic(t *testing.T) {
	// Minimize (w - 3)^2 elementwise.
	var p Params
	w := p.Add("w", ad.New(1, 4))
	opt := NewAdam(&p, 0.05)
	for i := 0; i < 500; i++ {
		p.ZeroGrad()
		for j := range w.W {
			w.G[j] = 2 * (w.W[j] - 3)
		}
		opt.Step()
	}
	for _, x := range w.W {
		if math.Abs(x-3) > 0.01 {
			t.Errorf("w = %v, want 3", w.W)
		}
	}
}

func TestGradClipping(t *testing.T) {
	var p Params
	w := p.Add("w", ad.New(1, 2))
	opt := NewAdam(&p, 0.1)
	opt.Clip = 1
	w.G[0], w.G[1] = 30, 40 // norm 50
	if n := opt.Step(); math.Abs(n-50) > 1e-9 {
		t.Errorf("reported norm %g, want 50", n)
	}
	// After clipping the effective gradient has norm 1, so both moments
	// stay small; just verify no NaNs and movement happened.
	if w.W[0] == 0 || math.IsNaN(w.W[0]) {
		t.Errorf("w = %v", w.W)
	}
}

func TestForgetGateBias(t *testing.T) {
	var p Params
	r := rand.New(rand.NewSource(5))
	l := NewLSTM(&p, "l", r, 2, 3)
	for j := 3; j < 6; j++ {
		if l.B.W[j] != 1 {
			t.Errorf("forget bias not initialized: %v", l.B.W)
		}
	}
	if l.B.W[0] != 0 {
		t.Errorf("input gate bias should be 0")
	}
}

// TestAdamExportRestore checks that a restored optimizer continues the
// exact update sequence of the original: two parameter sets start equal,
// one optimizer is checkpointed and rebuilt mid-run, and both end with
// bitwise-identical weights.
func TestAdamExportRestore(t *testing.T) {
	build := func() (*Params, *ad.V) {
		var p Params
		r := rand.New(rand.NewSource(17))
		v := p.Add("w", ad.New(3, 4))
		for i := range v.W {
			v.W[i] = r.NormFloat64()
		}
		return &p, v
	}
	step := func(p *Params, v *ad.V, opt *Adam, i int) {
		p.ZeroGrad()
		for j := range v.G {
			v.G[j] = v.W[j] + float64(i)*0.1 // deterministic pseudo-gradient
		}
		opt.Step()
	}

	pa, va := build()
	oa := NewAdam(pa, 0.01)
	pb, vb := build()
	ob := NewAdam(pb, 0.01)

	for i := 0; i < 5; i++ {
		step(pa, va, oa, i)
		step(pb, vb, ob, i)
	}
	// Checkpoint B and rebuild it from scratch, as a resumed run would.
	st := ob.Export()
	pb2, vb2 := build()
	copy(vb2.W, vb.W)
	ob2 := NewAdam(pb2, 0.01)
	if err := ob2.Restore(st); err != nil {
		t.Fatal(err)
	}
	for i := 5; i < 10; i++ {
		step(pa, va, oa, i)
		step(pb2, vb2, ob2, i)
	}
	for i := range va.W {
		if va.W[i] != vb2.W[i] {
			t.Fatalf("weight %d diverged after restore: %g vs %g", i, va.W[i], vb2.W[i])
		}
	}

	// Shape validation.
	var empty Params
	if err := NewAdam(&empty, 0.01).Restore(st); err == nil {
		t.Error("mismatched restore accepted")
	}
}

// TestReduceGrads: the reduction must sum shard gradients in ascending
// shard order (fixed bracketing — the basis of -j invariance), scale the
// sum, overwrite the destination gradient, and drain the shards.
func TestReduceGrads(t *testing.T) {
	build := func(seed int64) *Params {
		var p Params
		r := rand.New(rand.NewSource(seed))
		NewLinear(&p, "l", r, 3, 2)
		NewEmbedding(&p, "e", r, 5, 3)
		return &p
	}
	master := build(1)
	shards := []*Params{build(2), build(3), build(4)}
	for si, s := range shards {
		for pi, v := range s.All() {
			for i := range v.G {
				v.G[i] = float64(si+1) * float64(pi*100+i+1) * 1e-3
			}
		}
	}
	// Expected: ordered sum with explicit left-to-right bracketing.
	var want [][]float64
	for pi, v := range master.All() {
		w := make([]float64, len(v.G))
		for i := range w {
			sum := 0.0
			for _, s := range shards {
				sum += s.All()[pi].G[i]
			}
			w[i] = sum * 0.25
		}
		want = append(want, w)
		for i := range v.G {
			v.G[i] = 999 // must be overwritten, not accumulated into
		}
	}
	master.ReduceGrads(shards, 0.25)
	for pi, v := range master.All() {
		for i := range v.G {
			if math.Float64bits(v.G[i]) != math.Float64bits(want[pi][i]) {
				t.Fatalf("param %d elem %d: got %v want %v", pi, i, v.G[i], want[pi][i])
			}
		}
	}
	for si, s := range shards {
		for pi, v := range s.All() {
			for i := range v.G {
				if v.G[i] != 0 {
					t.Fatalf("shard %d param %d grad not drained", si, pi)
				}
			}
		}
	}
}

// TestReduceGradsShapeMismatch: mismatched shard parameter sets must
// panic rather than silently corrupt the update.
func TestReduceGradsShapeMismatch(t *testing.T) {
	var a, b Params
	r := rand.New(rand.NewSource(9))
	NewLinear(&a, "l", r, 3, 2)
	NewLinear(&b, "l", r, 2, 2)
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch should panic")
		}
	}()
	a.ReduceGrads([]*Params{&b}, 1)
}
