package ad

import (
	"math"
	"math/rand"
	"testing"
)

// trainStep runs one representative training step — embedding-style
// gather, dropout, two matmuls, masked cross-entropy — on the given
// tape, backpropagates, and returns the loss value. w1/w2 play the role
// of parameters: their gradients accumulate across calls unless zeroed.
func trainStep(t *Tape, w1, w2 *V, seed int64) float64 {
	rng := rand.New(rand.NewSource(seed))
	x := randV(rand.New(rand.NewSource(21)), 3, w1.R)
	h := t.Tanh(t.MatMul(x, w1))
	h = t.Dropout(h, 0.3, rng.Float64)
	logits := t.MatMul(h, w2)
	loss := t.SoftmaxCrossEntropy(logits, []int{1, 0, 2}, []float64{1, 1, 0})
	loss.G[0] = 1
	t.Backward()
	return loss.W[0]
}

// TestTrainingTapeMatchesNewTape: a pooled training tape must produce
// bitwise-identical losses and parameter gradients to a plain recording
// tape, including on reruns over recycled storage after Reset.
func TestTrainingTapeMatchesNewTape(t *testing.T) {
	mk := func() (*V, *V) {
		r := rand.New(rand.NewSource(31))
		return randV(r, 4, 6), randV(r, 6, 5)
	}
	w1a, w2a := mk()
	wantLoss := trainStep(NewTape(), w1a, w2a, 7)

	w1b, w2b := mk()
	pool := NewPool()
	tape := NewTraining(pool)
	for run := 0; run < 3; run++ {
		w1b.ZeroGrad()
		w2b.ZeroGrad()
		gotLoss := trainStep(tape, w1b, w2b, 7)
		if math.Float64bits(gotLoss) != math.Float64bits(wantLoss) {
			t.Fatalf("run %d: loss %v != %v", run, gotLoss, wantLoss)
		}
		if !equalWSlice(w1b.G, w1a.G) || !equalWSlice(w2b.G, w2a.G) {
			t.Fatalf("run %d: gradients diverge from plain recording tape", run)
		}
		if tape.Len() == 0 {
			t.Fatal("training tape recorded nothing")
		}
		tape.Reset()
		if tape.Len() != 0 {
			t.Fatal("Reset left recorded ops behind")
		}
	}
}

// TestSoftmaxCrossEntropySum: the summed loss relates to the mean loss
// by exactly the weight norm (mean is computed as sum/norm), and seeding
// the sum's output gradient with 1/norm reproduces the mean's parameter
// gradients bit for bit. Shard workers rely on this to compose
// per-shard sums into the batch-mean gradient.
func TestSoftmaxCrossEntropySum(t *testing.T) {
	r := rand.New(rand.NewSource(17))
	logitsMean := randV(r, 4, 7)
	logitsSum := &V{R: 4, C: 7, W: append([]float64(nil), logitsMean.W...), G: make([]float64, 4*7)}
	targets := []int{2, 0, 5, 1}
	weights := []float64{1, 2, 0, 1}
	norm := 4.0 // sum of weights

	tm := NewTape()
	mean := tm.SoftmaxCrossEntropy(logitsMean, targets, weights)
	mean.G[0] = 1
	tm.Backward()

	ts := NewTape()
	sum := ts.SoftmaxCrossEntropySum(logitsSum, targets, weights)
	if math.Float64bits(sum.W[0]/norm) != math.Float64bits(mean.W[0]) {
		t.Fatalf("sum/norm = %v, mean = %v", sum.W[0]/norm, mean.W[0])
	}
	sum.G[0] = 1 / norm
	ts.Backward()
	if !equalWSlice(logitsSum.G, logitsMean.G) {
		t.Fatalf("gradients differ:\nsum:  %v\nmean: %v", logitsSum.G, logitsMean.G)
	}
}

// TestForwardPooledOpsZeroAlloc: on a warmed pooled forward tape,
// SoftmaxCrossEntropy and LogSoftmaxRow must not allocate — their
// internal buffers come from the pool (the training loop calls them for
// every batch; so does validation scoring).
func TestForwardPooledOpsZeroAlloc(t *testing.T) {
	logits := randV(rand.New(rand.NewSource(5)), 8, 64)
	targets := make([]int, 8)
	weights := make([]float64, 8)
	for i := range weights {
		weights[i] = 1
	}
	tape := NewForward(NewPool())
	mark := tape.Mark()
	step := func() {
		ce := tape.SoftmaxCrossEntropy(logits, targets, weights)
		_ = ce.W[0]
		lp := tape.LogSoftmaxRow(logits.W[:64])
		_ = lp[0]
		tape.ReleaseSince(mark)
	}
	step() // warm the pool
	if allocs := testing.AllocsPerRun(100, step); allocs > 0 {
		t.Errorf("pooled forward CE+logsoftmax allocates %.1f times per step, want 0", allocs)
	}
}

// TestTrainingTapeAllocsBounded: a warmed training tape's per-step
// allocations must be a small constant — backward closures and the
// target/weight snapshots — never the O(batch x vocab) probability or
// mask buffers, which come from the pool.
func TestTrainingTapeAllocsBounded(t *testing.T) {
	r := rand.New(rand.NewSource(13))
	w1, w2 := randV(r, 4, 6), randV(r, 6, 128)
	pool := NewPool()
	tape := NewTraining(pool)
	step := func() {
		w1.ZeroGrad()
		w2.ZeroGrad()
		trainStep(tape, w1, w2, 3)
		tape.Reset()
	}
	for i := 0; i < 3; i++ {
		step() // warm pool and slice capacities
	}
	allocs := testing.AllocsPerRun(100, step)
	// Measured: ~12 (one closure per recorded op, the rand.Rand and
	// input value trainStep itself builds, CE's targets/weights copies).
	// A regression that reintroduces per-call make() for the softmax
	// probabilities or dropout mask adds at least one more.
	if allocs > 14 {
		t.Errorf("training step allocates %.1f times, want <= 14", allocs)
	}
}
