// Grouped attention ops for shared-encoder beam decoding. The batched
// beam decoder packs every live hypothesis — across all searches decoded
// together — into one [L,H] batch, but each row only ever attends over
// its own search's [T,H] encoder block. The tiled formulation
// (GatherRowBlocks + AttnScores) materializes a copy of that block for
// every row, multiplying attention memory traffic by beam width; the
// grouped ops here take the packed [S*T,H] encoder matrix plus a
// row→block map and read each search's block in place, so the attention
// working set stays one block per search no matter how wide the beams
// are. Every grouped op runs the exact per-row arithmetic of its tiled
// counterpart (same fixed ascending-index accumulation order), which is
// what keeps the batched decoder bitwise equal to the sequential
// reference (TestGroupedAttnMatchesTiled, and transitively
// TestPredictBatchedMatchesSequential in seq2seq).
package ad

import (
	"fmt"
	"math"
)

// checkGroups validates a row→block map against the block count.
func checkGroups(op string, groups []int, rows, blocks int) {
	if len(groups) != rows {
		panic(fmt.Sprintf("ad: %s %d groups for %d rows", op, len(groups), rows))
	}
	for _, g := range groups {
		if g < 0 || g >= blocks {
			panic(fmt.Sprintf("ad: %s group %d out of %d blocks", op, g, blocks))
		}
	}
}

// AttnScoresGrouped computes Luong dot-product attention scores between a
// decoder batch dec [L,H] and shared encoder blocks enc [S*T,H]
// (S = enc.R/T consecutive [T,H] blocks): scores[l,t] =
// dec[l] · enc[groups[l]*T+t]. Row l reads block groups[l] in place —
// no per-row tiled copy — with the same ascending-index accumulation as
// AttnScores, so each row is bitwise equal to scoring it against a tile
// of its block. Indices may repeat (all of a search's hypotheses share
// one block); backward scatter-adds into the shared blocks in ascending
// row order.
func (t *Tape) AttnScoresGrouped(dec, enc *V, groups []int, T int) *V {
	L, H := dec.R, dec.C
	if enc.C != H || T <= 0 || enc.R%T != 0 {
		panic(fmt.Sprintf("ad: AttnScoresGrouped enc %dx%d for L=%d T=%d H=%d", enc.R, enc.C, L, T, H))
	}
	checkGroups("AttnScoresGrouped", groups, L, enc.R/T)
	out := t.newDirty(L, T)
	if t.f32 && !t.grad {
		attnScoresGrouped32(out.W32, f32w(dec), f32w(enc), groups, T, H)
		return out
	}
	for l := 0; l < L; l++ {
		dl := dec.W[l*H : (l+1)*H]
		base := groups[l] * T
		for tt := 0; tt < T; tt++ {
			eb := enc.W[(base+tt)*H : (base+tt+1)*H]
			s := 0.0
			for j := 0; j < H; j++ {
				s += dl[j] * eb[j]
			}
			out.W[l*T+tt] = s
		}
	}
	if t.grad {
		gs := append([]int(nil), groups...)
		t.record(func() {
			for l, g := range gs {
				dl := dec.W[l*H : (l+1)*H]
				dg := dec.G[l*H : (l+1)*H]
				base := g * T
				for tt := 0; tt < T; tt++ {
					gv := out.G[l*T+tt]
					if gv == 0 {
						continue
					}
					eb := enc.W[(base+tt)*H : (base+tt+1)*H]
					eg := enc.G[(base+tt)*H : (base+tt+1)*H]
					for j := 0; j < H; j++ {
						dg[j] += gv * eb[j]
						eg[j] += gv * dl[j]
					}
				}
			}
		})
	}
	return out
}

// SoftmaxRowsMaskedGrouped applies SoftmaxRowsMasked's per-row masked
// softmax to a [L,T] score matrix whose row l uses mask block
// mask[groups[l]*T : (groups[l]+1)*T] — the grouped sibling that spares
// the decoder re-tiling the [S*T] mask per hypothesis row. A fully
// masked row yields all-zero attention, exactly like SoftmaxRowsMasked.
// On f64 tapes a row's exponentials run through expv, which is bitwise
// math.Exp, so every value is SoftmaxRowsMasked's.
func (t *Tape) SoftmaxRowsMaskedGrouped(a *V, mask []float64, groups []int) *V {
	L, T := a.R, a.C
	if T <= 0 || len(mask)%T != 0 {
		panic(fmt.Sprintf("ad: SoftmaxRowsMaskedGrouped mask %d for T=%d", len(mask), T))
	}
	checkGroups("SoftmaxRowsMaskedGrouped", groups, L, len(mask)/T)
	if t.f32 && !t.grad {
		return t.softmaxRowsMaskedGroupedF32(a, mask, groups)
	}
	out := t.new(L, T)
	for l := 0; l < L; l++ {
		mb := mask[groups[l]*T : (groups[l]+1)*T]
		row := a.W[l*T : (l+1)*T]
		max, hi := math.Inf(-1), 0
		for tt, m := range mb {
			if m != 0 {
				hi = tt + 1
				if row[tt] > max {
					max = row[tt]
				}
			}
		}
		if math.IsInf(max, -1) {
			continue // fully masked row: all-zero attention
		}
		// Up to the last unmasked position, one expv: a masked position
		// takes exp(-Inf) = +0, the value it holds in out anyway.
		e := out.W[l*T : l*T+hi]
		for tt := range e {
			e[tt] = math.Inf(-1)
			if mb[tt] != 0 {
				e[tt] = row[tt] - max
			}
		}
		expv(e, e)
		sum := 0.0
		for tt, v := range e {
			if mb[tt] != 0 {
				sum += v
			}
		}
		for tt := 0; tt < T; tt++ {
			out.W[l*T+tt] /= sum
		}
	}
	if t.grad {
		t.record(func() {
			for l := 0; l < L; l++ {
				// dL/dx_i = y_i * (g_i - sum_j g_j y_j)
				dot := 0.0
				for tt := 0; tt < T; tt++ {
					dot += out.G[l*T+tt] * out.W[l*T+tt]
				}
				for tt := 0; tt < T; tt++ {
					a.G[l*T+tt] += out.W[l*T+tt] * (out.G[l*T+tt] - dot)
				}
			}
		})
	}
	return out
}

// WeightedSumGrouped computes attention contexts against shared encoder
// blocks: given weights alpha [L,T], blocks enc [S*T,H], and a row→block
// map, returns ctx [L,H] with ctx[l] = sum_t alpha[l,t] *
// enc[groups[l]*T+t]. The f64 path runs one matmul per maximal run of
// consecutive rows that share a block (a search's beams are
// consecutive): each element accumulates in ascending t and skips zero
// weights (masked positions contribute exactly nothing), WeightedSum's
// own chain, so each row is bitwise equal to the tiled path.
func (t *Tape) WeightedSumGrouped(alpha, enc *V, groups []int, H int) *V {
	L, T := alpha.R, alpha.C
	if enc.C != H || T <= 0 || enc.R%T != 0 {
		panic(fmt.Sprintf("ad: WeightedSumGrouped enc %dx%d for L=%d T=%d H=%d", enc.R, enc.C, L, T, H))
	}
	checkGroups("WeightedSumGrouped", groups, L, enc.R/T)
	out := t.new(L, H)
	if t.f32 && !t.grad {
		weightedSumGrouped32(out.W32, f32w(alpha), f32w(enc), groups, T, H)
		return out
	}
	for l0 := 0; l0 < L; {
		g, l1 := groups[l0], l0+1
		for l1 < L && groups[l1] == g {
			l1++
		}
		matmul(out.W[l0*H:l1*H], alpha.W[l0*T:l1*T], enc.W[g*T*H:(g+1)*T*H], l1-l0, T, H)
		l0 = l1
	}
	if t.grad {
		gs := append([]int(nil), groups...)
		t.record(func() {
			for l, g := range gs {
				og := out.G[l*H : (l+1)*H]
				base := g * T
				for tt := 0; tt < T; tt++ {
					eb := enc.W[(base+tt)*H : (base+tt+1)*H]
					eg := enc.G[(base+tt)*H : (base+tt+1)*H]
					w := alpha.W[l*T+tt]
					s := 0.0
					for j := 0; j < H; j++ {
						s += og[j] * eb[j]
						eg[j] += og[j] * w
					}
					alpha.G[l*T+tt] += s
				}
			}
		})
	}
	return out
}
