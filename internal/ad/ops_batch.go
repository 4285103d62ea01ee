// Batched beam-search primitives. Beam search packs every live
// hypothesis — across all searches decoded together — into one batch so
// each decode step runs the band-fused GEMM kernels once instead of a
// matvec per hypothesis. The ops here do the packing: gathering parent
// states for surviving beams, broadcasting per-search encoder blocks
// across that search's hypotheses, and scoring all rows at once. Each op
// is row-wise identical to its one-row counterpart (copies, or the same
// ascending-index arithmetic), which is what keeps the batched decoder
// bitwise equal to the sequential reference.
package ad

import "fmt"

// GatherRows returns the rows of a selected by idx as a new
// [len(idx), C] value. It is the beam-search re-selection primitive:
// after pruning, the surviving hypotheses pick their parents' decoder
// states out of the previous step's batch in one pooled copy instead of
// round-tripping each row through Go slices. Indices may repeat (several
// survivors can share a parent); backward scatter-adds accordingly.
func (t *Tape) GatherRows(a *V, idx []int) *V {
	return t.Rows(a, idx)
}

// GatherRowBlocks gathers fixed-size row blocks: a is treated as a stack
// of a.R/block consecutive blocks of `block` rows each, and the output
// is the blocks selected by idx, concatenated — [len(idx)*block, C].
// Beam search uses it to tile each search's encoder states across that
// search's live hypotheses so one AttnScores call covers the whole
// batch. Indices may repeat; backward scatter-adds per block.
func (t *Tape) GatherRowBlocks(a *V, idx []int, block int) *V {
	if block <= 0 || a.R%block != 0 {
		panic(fmt.Sprintf("ad: GatherRowBlocks block %d of %d rows", block, a.R))
	}
	nb := a.R / block
	stride := block * a.C
	if t.f32 && !t.grad {
		return t.gatherRowBlocksF32(a, idx, block, nb, stride)
	}
	out := t.newDirty(len(idx)*block, a.C)
	for i, id := range idx {
		if id < 0 || id >= nb {
			panic(fmt.Sprintf("ad: GatherRowBlocks index %d out of %d blocks", id, nb))
		}
		copy(out.W[i*stride:(i+1)*stride], a.W[id*stride:(id+1)*stride])
	}
	if t.grad {
		ids := append([]int(nil), idx...)
		t.record(func() {
			for i, id := range ids {
				dst := a.G[id*stride : (id+1)*stride]
				for j, g := range out.G[i*stride : (i+1)*stride] {
					dst[j] += g
				}
			}
		})
	}
	return out
}

// StackRowBlocks packs values with a common column count into one matrix
// of fixed-size row blocks: vs[i] (at most block rows) lands at rows
// [i*block, i*block+vs[i].R), and the rest of each block stays zero.
// It builds the combined encoder matrix for multi-search decoding, where
// searches have ragged source lengths: padding rows are all-zero and the
// caller masks them out of attention, so each search's arithmetic only
// ever touches its own real rows.
func (t *Tape) StackRowBlocks(vs []*V, block int) *V {
	C := vs[0].C
	if t.f32 && !t.grad {
		return t.stackRowBlocksF32(vs, block, C)
	}
	out := t.new(len(vs)*block, C)
	for i, v := range vs {
		if v.C != C || v.R > block {
			panic(fmt.Sprintf("ad: StackRowBlocks %dx%d into %d-row blocks of %d cols", v.R, v.C, block, C))
		}
		copy(out.W[i*block*C:], v.W)
	}
	if t.grad {
		t.record(func() {
			for i, v := range vs {
				for j, g := range out.G[i*block*C : i*block*C+len(v.G)] {
					v.G[j] += g
				}
			}
		})
	}
	return out
}

// LogSoftmaxRows computes the log-softmax of every row of a [B,V] matrix
// into one pooled value. Each row runs the exact LogSoftmaxRow
// arithmetic (max, exp-sum in ascending index order, subtract), so
// batched beam scores are bitwise equal to scoring each hypothesis
// alone. No gradients are recorded, matching LogSoftmaxRow
// (inference-only).
func (t *Tape) LogSoftmaxRows(a *V) *V {
	if t.f32 && !t.grad {
		return t.logSoftmaxRowsF32(a)
	}
	out := t.newDirty(a.R, a.C)
	for i := 0; i < a.R; i++ {
		logSoftmaxRow(out.W[i*a.C:(i+1)*a.C], a.W[i*a.C:(i+1)*a.C])
	}
	return out
}
