// Single-precision forward-op implementations. Every Tape op dispatches
// here when t.f32 && !t.grad (see NewForwardF32); each method mirrors
// its float64 sibling's shape contract and loop structure, reads inputs
// through f32w (cached W32 views of parameters, lazy conversion for
// per-call constants), and writes float32 outputs drawn from the pool's
// f32 free list. No gradients exist on f32 tapes, so none of these
// record backward closures.
package ad

import (
	"fmt"
	"math"
)

func (t *Tape) matMulF32(a, b *V) *V {
	out := t.new(a.R, b.C)
	matmul32(out.W32, f32w(a), f32w(b), a.R, a.C, b.C)
	return out
}

func (t *Tape) addF32(a, b *V) *V {
	aw, bw := f32w(a), f32w(b)
	if b.R == 1 && a.C == b.C && a.R != 1 {
		out := t.newDirty(a.R, a.C)
		for i := 0; i < a.R; i++ {
			vadd32(out.W32[i*a.C:(i+1)*a.C], aw[i*a.C:(i+1)*a.C], bw)
		}
		return out
	}
	sameShape("Add", a, b)
	out := t.newDirty(a.R, a.C)
	vadd32(out.W32, aw, bw)
	return out
}

func (t *Tape) subF32(a, b *V) *V {
	aw, bw := f32w(a), f32w(b)
	out := t.newDirty(a.R, a.C)
	for i := range out.W32 {
		out.W32[i] = aw[i] - bw[i]
	}
	return out
}

func (t *Tape) mulF32(a, b *V) *V {
	aw, bw := f32w(a), f32w(b)
	out := t.newDirty(a.R, a.C)
	for i := range out.W32 {
		out.W32[i] = aw[i] * bw[i]
	}
	return out
}

func (t *Tape) scaleF32(a *V, s float64) *V {
	aw, sf := f32w(a), float32(s)
	out := t.newDirty(a.R, a.C)
	for i := range out.W32 {
		out.W32[i] = aw[i] * sf
	}
	return out
}

// sigmoidF32 runs the logistic function through the vector exp: negate
// into the output buffer, exponentiate 8 lanes at a time, then the
// scalar 1/(1+e) pass — the same arithmetic as sigmoidf32 modulo
// expv32's vector-vs-scalar ulps.
func (t *Tape) sigmoidF32(a *V) *V {
	aw := f32w(a)
	out := t.newDirty(a.R, a.C)
	ow := out.W32
	for i, x := range aw {
		ow[i] = -x
	}
	expv32(ow, ow)
	for i, e := range ow {
		ow[i] = 1 / (1 + e)
	}
	return out
}

// tanhF32 mirrors tanhf32 through the vector exp: e = exp(-2|x|)
// batched, then the rational form with tanhf32's exact saturation and
// NaN edges restored per element from the original input.
func (t *Tape) tanhF32(a *V) *V {
	aw := f32w(a)
	out := t.newDirty(a.R, a.C)
	ow := out.W32
	for i, x := range aw {
		if x < 0 {
			x = -x
		}
		ow[i] = -2 * x
	}
	expv32(ow, ow)
	for i, x := range aw {
		e := ow[i]
		v := (1 - e) / (1 + e)
		switch {
		case x != x:
			v = x
		case x > 9.01:
			v = 1
		case x < -9.01:
			v = -1
		case x < 0:
			v = -v
		}
		ow[i] = v
	}
	return out
}

func (t *Tape) reluF32(a *V) *V {
	aw := f32w(a)
	out := t.new(a.R, a.C)
	for i := range out.W32 {
		if aw[i] > 0 {
			out.W32[i] = aw[i]
		}
	}
	return out
}

func (t *Tape) concatColsF32(r, c int, vs []*V) *V {
	out := t.newDirty(r, c)
	off := 0
	for _, v := range vs {
		vw := f32w(v)
		for i := 0; i < r; i++ {
			copy(out.W32[i*c+off:i*c+off+v.C], vw[i*v.C:(i+1)*v.C])
		}
		off += v.C
	}
	return out
}

func (t *Tape) sliceColsF32(a *V, lo, hi int) *V {
	aw := f32w(a)
	out := t.newDirty(a.R, hi-lo)
	for i := 0; i < a.R; i++ {
		copy(out.W32[i*out.C:(i+1)*out.C], aw[i*a.C+lo:i*a.C+hi])
	}
	return out
}

func (t *Tape) rowsF32(a *V, idx []int) *V {
	aw := f32w(a)
	out := t.newDirty(len(idx), a.C)
	for i, id := range idx {
		if id < 0 || id >= a.R {
			panic(fmt.Sprintf("ad: Rows index %d out of %d", id, a.R))
		}
		copy(out.W32[i*a.C:(i+1)*a.C], aw[id*a.C:(id+1)*a.C])
	}
	return out
}

func (t *Tape) dropoutF32(a *V, p float64, rng func() float64) *V {
	aw := f32w(a)
	out := t.new(a.R, a.C)
	scale := float32(1 / (1 - p))
	for i := range aw {
		if rng() >= p {
			out.W32[i] = aw[i] * scale
		}
	}
	return out
}

func (t *Tape) softmaxRowsMaskedF32(a *V, mask []float64) *V {
	B, T := a.R, a.C
	aw := f32w(a)
	out := t.new(B, T)
	for b := 0; b < B; b++ {
		softmaxRowMasked32(out.W32[b*T:(b+1)*T], aw[b*T:(b+1)*T], mask[b*T:(b+1)*T])
	}
	return out
}

func (t *Tape) softmaxRowsMaskedGroupedF32(a *V, mask []float64, groups []int) *V {
	L, T := a.R, a.C
	aw := f32w(a)
	out := t.new(L, T)
	for l, g := range groups {
		softmaxRowMasked32(out.W32[l*T:(l+1)*T], aw[l*T:(l+1)*T], mask[g*T:(g+1)*T])
	}
	return out
}

// softmaxRowMasked32 is one row of SoftmaxRowsMasked in float32: mask
// entries of 0 are -inf (padding), a fully masked row stays all-zero.
// out must arrive zeroed (a fresh tape value).
//
// The exponentials run through the vector exp with out as scratch, over
// positions 0 through the row's last unmasked one only. Where a row
// stops is the one thing batching changes: padding a row with trailing
// masked positions (a longer source elsewhere in the batch) must not
// move which of its real positions fall in the vector body and which in
// the scalar tail, since the two can differ in the last ulp (contract
// note 2) — so the exp never reaches the padding, and a padded row is
// bitwise the unpadded one (TestSoftmaxRowMasked32PaddingInvariant).
// Masked positions inside that span are exponentiated too (their
// shifted scores may exceed zero, even overflow — both harmless) and
// zeroed before the ascending-order sum, which adds exactly the
// unmasked terms the scalar form added.
func softmaxRowMasked32(out, row []float32, mask []float64) {
	max := float32(math.Inf(-1))
	last := -1
	for tt, x := range row {
		if mask[tt] != 0 {
			if last < 0 || x > max {
				max = x
			}
			last = tt
		}
	}
	if last < 0 {
		return // fully masked row: all-zero attention
	}
	live := out[:last+1]
	for tt := range live {
		live[tt] = row[tt] - max
	}
	expv32(live, live)
	var sum float32
	for tt := range live {
		if mask[tt] == 0 {
			live[tt] = 0
			continue
		}
		sum += live[tt]
	}
	for tt := range live {
		live[tt] /= sum
	}
}

func (t *Tape) stackRowsF32(vs []*V, T, B, C int) *V {
	out := t.newDirty(B*T, C)
	for tt, v := range vs {
		if v.R != B || v.C != C {
			panic("ad: StackRows shape mismatch")
		}
		vw := f32w(v)
		for b := 0; b < B; b++ {
			copy(out.W32[(b*T+tt)*C:(b*T+tt+1)*C], vw[b*C:(b+1)*C])
		}
	}
	return out
}

func (t *Tape) maskRowsF32(a *V, mask []float64) *V {
	aw := f32w(a)
	out := t.new(a.R, a.C)
	for i := 0; i < a.R; i++ {
		if mask[i] != 0 {
			copy(out.W32[i*a.C:(i+1)*a.C], aw[i*a.C:(i+1)*a.C])
		}
	}
	return out
}

func (t *Tape) blendF32(a, b *V, mask []float64) *V {
	aw, bw := f32w(a), f32w(b)
	out := t.newDirty(a.R, a.C)
	for i := 0; i < a.R; i++ {
		src := bw
		if mask[i] != 0 {
			src = aw
		}
		copy(out.W32[i*a.C:(i+1)*a.C], src[i*a.C:(i+1)*a.C])
	}
	return out
}

func (t *Tape) layerNormF32(a, gain, bias *V, eps float64) *V {
	R, C := a.R, a.C
	aw, gw, bw := f32w(a), f32w(gain), f32w(bias)
	out := t.newDirty(R, C)
	for i := 0; i < R; i++ {
		row := aw[i*C : (i+1)*C]
		// Mean and variance accumulate in float64: C terms of cancellation
		// would otherwise cost most of the float32 mantissa.
		m := 0.0
		for _, x := range row {
			m += float64(x)
		}
		m /= float64(C)
		v := 0.0
		for _, x := range row {
			d := float64(x) - m
			v += d * d
		}
		v /= float64(C)
		is := float32(1 / math.Sqrt(v+eps))
		mf := float32(m)
		orow := out.W32[i*C : (i+1)*C]
		for j, x := range row {
			orow[j] = (x-mf)*is*gw[j] + bw[j]
		}
	}
	return out
}

func (t *Tape) addRowsConstF32(a *V, c []float64) *V {
	if len(c) != a.R*a.C {
		panic("ad: AddRowsConst length mismatch")
	}
	aw := f32w(a)
	out := t.newDirty(a.R, a.C)
	for i := range aw {
		out.W32[i] = aw[i] + float32(c[i])
	}
	return out
}

func (t *Tape) gatherRowBlocksF32(a *V, idx []int, block, nb, stride int) *V {
	aw := f32w(a)
	out := t.newDirty(len(idx)*block, a.C)
	for i, id := range idx {
		if id < 0 || id >= nb {
			panic(fmt.Sprintf("ad: GatherRowBlocks index %d out of %d blocks", id, nb))
		}
		copy(out.W32[i*stride:(i+1)*stride], aw[id*stride:(id+1)*stride])
	}
	return out
}

func (t *Tape) stackRowBlocksF32(vs []*V, block, C int) *V {
	out := t.new(len(vs)*block, C)
	for i, v := range vs {
		if v.C != C || v.R > block {
			panic(fmt.Sprintf("ad: StackRowBlocks %dx%d into %d-row blocks of %d cols", v.R, v.C, block, C))
		}
		copy(out.W32[i*block*C:], f32w(v))
	}
	return out
}

func (t *Tape) logSoftmaxRowsF32(a *V) *V {
	aw := f32w(a)
	out := t.newDirty(a.R, a.C)
	for i := 0; i < a.R; i++ {
		logSoftmaxRow32(out.W32[i*a.C:(i+1)*a.C], aw[i*a.C:(i+1)*a.C])
	}
	return out
}
