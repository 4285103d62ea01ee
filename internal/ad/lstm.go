package ad

import (
	"fmt"
	"math"
)

// LSTMCell finishes one LSTM timestep from its two gate products: with
// z = (xw + hw) + b laid out as the i, f, g, o gate blocks of width H
// (xw, hw [B,4H], b [1,4H]) it returns
//
//	c = σ(f)·cPrev + σ(i)·tanh(g)
//	h = σ(o)·tanh(c)
//
// as two [B,H] values. Rows whose mask entry is 0 (padding) hold their
// state: h and c copy hPrev and cPrev there, and those rows of xw and hw
// affect no output (nn.LSTM.StepMasked leaves them zero). A nil mask
// means every row advances.
//
// Recording and f32 tapes emit the composite ops (Add, SliceCols,
// Sigmoid, Tanh, Mul and, when masked, Blend), which are the reference.
// f64 forward tapes run one fused pass per row instead (lstmCellFused)
// that performs the same scalar operations in the same order and is
// bitwise equal to the composite ops (TestLSTMCellFusedMatchesComposite).
func (t *Tape) LSTMCell(xw, hw, b, hPrev, cPrev *V, mask []float64) (h, c *V) {
	B, H := hPrev.R, hPrev.C
	if xw.R != B || xw.C != 4*H || hw.R != B || hw.C != 4*H || b.R != 1 || b.C != 4*H ||
		cPrev.R != B || cPrev.C != H {
		panic(fmt.Sprintf("ad: LSTMCell xw %dx%d, hw %dx%d, b %dx%d for state %dx%d, cell %dx%d",
			xw.R, xw.C, hw.R, hw.C, b.R, b.C, B, H, cPrev.R, cPrev.C))
	}
	if mask != nil && len(mask) != B {
		panic("ad: LSTMCell mask length mismatch")
	}
	if t.grad || t.f32 {
		return t.lstmCellComposite(xw, hw, b, hPrev, cPrev, mask)
	}
	return t.lstmCellFused(xw, hw, b, hPrev, cPrev, mask)
}

func (t *Tape) lstmCellComposite(xw, hw, b, hPrev, cPrev *V, mask []float64) (h, c *V) {
	H := hPrev.C
	z := t.Add(t.Add(xw, hw), b)
	i := t.Sigmoid(t.SliceCols(z, 0, H))
	f := t.Sigmoid(t.SliceCols(z, H, 2*H))
	g := t.Tanh(t.SliceCols(z, 2*H, 3*H))
	o := t.Sigmoid(t.SliceCols(z, 3*H, 4*H))
	c = t.Add(t.Mul(f, cPrev), t.Mul(i, g))
	h = t.Mul(o, t.Tanh(c))
	if mask != nil {
		h = t.Blend(h, hPrev, mask)
		c = t.Blend(c, cPrev, mask)
	}
	return h, c
}

// lstmCellFused is LSTMCell on f64 forward tapes. Per row it writes every
// exponential the gates need into one scratch row — exp(-z) for the
// three sigmoids, exp(2|z|) for tanh(g) — and runs them through one
// expv; then it forms the gates and the cell, and runs a second expv
// over exp(2|c|) for tanh(c). Each value is computed as its composite op
// computes it: 1/(1+math.Exp(-z)) for σ, math.Tanh through tanhExp for
// tanh, and the products rounded before the cell's sum, which the
// explicit float64 conversions keep the compiler from fusing into an FMA.
func (t *Tape) lstmCellFused(xw, hw, b, hPrev, cPrev *V, mask []float64) (h, c *V) {
	B, H := hPrev.R, hPrev.C
	h, c = t.new(B, H), t.new(B, H)
	// e holds the exponential arguments, then their values, for the
	// four gate blocks; zg keeps the g pre-activations tanhExp reads.
	scr := t.scratch(5 * H)
	e, zg := scr[:4*H], scr[4*H:]
	bw := b.W
	for r := 0; r < B; r++ {
		hr, cr := h.W[r*H:(r+1)*H], c.W[r*H:(r+1)*H]
		hp, cp := hPrev.W[r*H:(r+1)*H], cPrev.W[r*H:(r+1)*H]
		if mask != nil && mask[r] == 0 {
			copy(hr, hp)
			copy(cr, cp)
			continue
		}
		xr, wr := xw.W[r*4*H:(r+1)*4*H], hw.W[r*4*H:(r+1)*4*H]
		for j := range e {
			e[j] = -((xr[j] + wr[j]) + bw[j])
		}
		for j, nz := range e[2*H : 3*H] { // tanh(g) takes exp(2|g|)
			zg[j] = -nz
			e[2*H+j] = 2 * math.Abs(nz)
		}
		expv(e, e)
		ei, ef, eg, eo := e[:H], e[H:2*H], e[2*H:3*H], e[3*H:]
		// Once i is formed its block takes tanh(c)'s arguments.
		for j := range cr {
			ig := 1 / (1 + ei[j])
			fg := 1 / (1 + ef[j])
			gg := tanhExp(zg[j], eg[j])
			cv := float64(fg*cp[j]) + float64(ig*gg)
			cr[j] = cv
			ei[j] = 2 * math.Abs(cv)
		}
		expv(ei, ei)
		for j := range hr {
			hr[j] = (1 / (1 + eo[j])) * tanhExp(cr[j], ei[j])
		}
	}
	return h, c
}
