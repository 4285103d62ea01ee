package ad

import (
	"math"
	"math/rand"
	"testing"
)

// groupedFixture builds S encoder blocks of T rows, L decoder rows, a
// row→block map with repeats (several rows sharing a block, one block
// unused), and a mask with ragged real lengths per block.
func groupedFixture(r *rand.Rand) (dec, enc *V, mask []float64, groups []int, T, H int) {
	const S = 3
	T, H = 5, 12
	enc = randV(r, S*T, H)
	groups = []int{0, 2, 0, 2, 2, 0} // block 1 unused; 0 and 2 shared
	dec = randV(r, len(groups), H)
	mask = make([]float64, S*T)
	lens := []int{T, 3, 4} // ragged real lengths, block 1 full
	for b, n := range lens {
		for tt := 0; tt < n; tt++ {
			mask[b*T+tt] = 1
		}
	}
	return dec, enc, mask, groups, T, H
}

// tiledAttn is the pre-grouped formulation: tile each row's block with
// GatherRowBlocks, then run the per-example attention chain.
func tiledAttn(tape *Tape, dec, enc *V, mask []float64, groups []int, T, H int) (scores, alpha, ctx *V) {
	tile := tape.GatherRowBlocks(enc, groups, T)
	tmask := make([]float64, 0, len(groups)*T)
	for _, g := range groups {
		tmask = append(tmask, mask[g*T:(g+1)*T]...)
	}
	scores = tape.AttnScores(dec, tile, T)
	alpha = tape.SoftmaxRowsMasked(scores, tmask)
	ctx = tape.WeightedSum(alpha, tile, H)
	return scores, alpha, ctx
}

func groupedAttn(tape *Tape, dec, enc *V, mask []float64, groups []int, T, H int) (scores, alpha, ctx *V) {
	scores = tape.AttnScoresGrouped(dec, enc, groups, T)
	alpha = tape.SoftmaxRowsMaskedGrouped(scores, mask, groups)
	ctx = tape.WeightedSumGrouped(alpha, enc, groups, H)
	return scores, alpha, ctx
}

// TestGroupedAttnMatchesTiled pins the grouped attention chain bitwise
// to the tiled GatherRowBlocks formulation on both the exact and the
// f32 forward paths — the equivalence the batched decoder's bitwise
// oracle rests on after the tiling removal.
func TestGroupedAttnMatchesTiled(t *testing.T) {
	for _, tc := range []struct {
		name string
		mk   func() *Tape
	}{
		{"exact", func() *Tape { return NewForward(NewPool()) }},
		{"f32", func() *Tape { return NewForwardF32(NewPool()) }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			r := rand.New(rand.NewSource(91))
			dec, enc, mask, groups, T, H := groupedFixture(r)
			ws, wa, wc := tiledAttn(tc.mk(), dec, enc, mask, groups, T, H)
			gs, ga, gc := groupedAttn(tc.mk(), dec, enc, mask, groups, T, H)
			if !equalW(gs, ws) {
				t.Errorf("AttnScoresGrouped differs from tiled AttnScores")
			}
			if !equalW(ga, wa) {
				t.Errorf("SoftmaxRowsMaskedGrouped differs from tiled SoftmaxRowsMasked")
			}
			if !equalW(gc, wc) {
				t.Errorf("WeightedSumGrouped differs from tiled WeightedSum")
			}
		})
	}
}

// TestGroupedAttnFullyMaskedRow pins the fully-masked-block contract:
// all-zero attention weights and an all-zero context, matching
// SoftmaxRowsMasked.
func TestGroupedAttnFullyMaskedRow(t *testing.T) {
	r := rand.New(rand.NewSource(92))
	T, H := 4, 6
	enc := randV(r, 2*T, H)
	dec := randV(r, 2, H)
	groups := []int{1, 0}
	mask := make([]float64, 2*T) // block 0 fully masked
	for tt := 0; tt < T; tt++ {
		mask[T+tt] = 1
	}
	tape := NewForward(NewPool())
	_, alpha, ctx := groupedAttn(tape, dec, enc, mask, groups, T, H)
	for tt := 0; tt < T; tt++ {
		if alpha.W[T+tt] != 0 {
			t.Fatalf("masked row alpha[%d] = %v, want 0", tt, alpha.W[T+tt])
		}
	}
	for j := 0; j < H; j++ {
		if ctx.W[H+j] != 0 {
			t.Fatalf("masked row ctx[%d] = %v, want 0", j, ctx.W[H+j])
		}
	}
}

// TestGroupedAttnBackwardMatchesTiled seeds identical output gradients
// through both formulations on recording tapes and compares every input
// gradient. Shared-block gradients are mathematically the same sum of
// per-row contributions, but the grouped backward accumulates them per
// op (all WeightedSum rows, then all AttnScores rows) where the tiled
// backward sums both ops into each tile copy before scattering — a
// different rounding order — so the comparison is near-exact, not
// bitwise. Only the forward pass (what beam decoding uses) carries the
// bitwise contract; nothing trains through the grouped ops.
func TestGroupedAttnBackwardMatchesTiled(t *testing.T) {
	r := rand.New(rand.NewSource(93))
	decT, encT, mask, groups, T, H := groupedFixture(r)
	decG := New(decT.R, decT.C)
	encG := New(encT.R, encT.C)
	copy(decG.W, decT.W)
	copy(encG.W, encT.W)

	seed := func(v *V) {
		for i := range v.G {
			v.G[i] = 0.01*float64(i%7) - 0.03
		}
	}
	tapeT := NewTape()
	_, _, ctxT := tiledAttn(tapeT, decT, encT, mask, groups, T, H)
	seed(ctxT)
	tapeT.Backward()

	tapeG := NewTape()
	_, _, ctxG := groupedAttn(tapeG, decG, encG, mask, groups, T, H)
	seed(ctxG)
	tapeG.Backward()

	closeSlice := func(name string, got, want []float64) {
		t.Helper()
		for i := range want {
			diff := math.Abs(got[i] - want[i])
			if diff > 1e-12*(1+math.Abs(want[i])) {
				t.Fatalf("%s gradient[%d]: grouped %v, tiled %v", name, i, got[i], want[i])
			}
		}
	}
	closeSlice("dec", decG.G, decT.G)
	closeSlice("enc", encG.G, encT.G)
}

// TestGroupedAttnAllocsSteadyState pins the pooled steady state: once
// the pool is warm, a full grouped attention step allocates nothing —
// and in particular never draws a width-scaled [L*T,H] tile buffer. The
// row count L stands in for beam width; the largest buffer the chain
// ever draws must stay the shared encoder matrix (or smaller), not
// L*T*H.
func TestGroupedAttnAllocsSteadyState(t *testing.T) {
	r := rand.New(rand.NewSource(94))
	dec, enc, mask, groups, T, H := groupedFixture(r)
	for _, tc := range []struct {
		name string
		mk   func(*Pool) *Tape
	}{
		{"exact", NewForward},
		{"f32", NewForwardF32},
	} {
		t.Run(tc.name, func(t *testing.T) {
			pool := NewPool()
			tape := tc.mk(pool)
			step := func() {
				groupedAttn(tape, dec, enc, mask, groups, T, H)
				tape.Reset()
			}
			step() // warm the pool
			if allocs := testing.AllocsPerRun(50, step); allocs > 0 {
				t.Errorf("grouped attention step allocates %v/run after warmup, want 0", allocs)
			}
			if tile := len(groups) * T * H; pool.MaxBufferElems() >= tile {
				t.Errorf("largest pooled buffer %d elems >= tile size %d: a width-scaled buffer is back",
					pool.MaxBufferElems(), tile)
			}
		})
	}
}
