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
// may hold anything — zeros where nn.LSTM's leading-row GEMMs skip
// them, a gathered padding token's projection where the caller
// projected tokens once (nn.Tokens) — and affect no output: the fused
// pass never reads them and the composite ops' Blend discards them. A
// nil mask means every row advances.
//
// Recording and f32 tapes emit the composite ops (Add, SliceCols,
// Sigmoid, Tanh, Mul and, when masked, Blend), which are the reference.
// f64 forward tapes run one fused pass per row instead (lstmCellFused):
// on FMA hosts a 4-lane assembly kernel (lstmCellAVX2) over four hidden
// units per vector, with the Go loop (lstmCellUnits) for the H%4 tail
// and for rows the kernel declines. Both perform the same scalar
// operations in the same order and are bitwise equal to the composite
// ops (TestLSTMCellFusedMatchesComposite, FuzzLSTMCell).
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

// lstmCellFused is LSTMCell on f64 forward tapes. Held rows copy their
// state. On FMA hosts (useFMA, the gate vexpFMA runs under) a live row
// runs lstmCellAVX2 over its first H&^3 hidden units, four per vector,
// and lstmCellUnits over the H%4 tail; a row the kernel declines (a
// sigmoid argument outside the vector exp's range) and every row on
// other hosts runs lstmCellUnits whole. Both paths compute each value as
// its composite op computes it, so they agree bit for bit.
func (t *Tape) lstmCellFused(xw, hw, b, hPrev, cPrev *V, mask []float64) (h, c *V) {
	B, H := hPrev.R, hPrev.C
	h, c = t.newDirty(B, H), t.newDirty(B, H)
	nv := 0
	if useFMA {
		nv = H &^ 3
	}
	var scr []float64
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
		lo := 0
		if nv > 0 && lstmCellAVX2(&hr[0], &cr[0], &xr[0], &wr[0], &bw[0], &cp[0], nv, H, expConsts) {
			lo = nv
		}
		if lo == H {
			continue
		}
		if scr == nil {
			scr = t.scratch(5 * H)
		}
		lstmCellUnits(hr, cr, cp, xr, wr, bw, lo, scr)
	}
	return h, c
}

// lstmCellUnits computes hidden units lo..H-1 of one live row in Go. It
// writes every exponential those units' gates need into one scratch
// row — exp(-z) for the three sigmoids, exp(2|z|) for tanh(g) — and runs
// them through one expv; then it forms the gates and the cell, and runs
// a second expv over exp(2|c|) for tanh(c). Each value is computed as
// its composite op computes it: 1/(1+math.Exp(-z)) for σ, math.Tanh
// through tanhExp for tanh, and the products rounded before the cell's
// sum, which the explicit float64 conversions keep the compiler from
// fusing into an FMA. hr, cr and cp are the row's [H] state, xr, wr and
// bw its [4H] gate operands; scr holds at least 5(H-lo) elements.
func lstmCellUnits(hr, cr, cp, xr, wr, bw []float64, lo int, scr []float64) {
	H := len(cr)
	m := H - lo
	// e holds the exponential arguments, then their values, for the
	// four gate blocks; zg keeps the g pre-activations tanhExp reads.
	e, zg := scr[:4*m], scr[4*m:5*m]
	for q := 0; q < 4; q++ {
		eq, xq, wq, bq := e[q*m:(q+1)*m], xr[q*H+lo:(q+1)*H], wr[q*H+lo:(q+1)*H], bw[q*H+lo:(q+1)*H]
		for j := range eq {
			eq[j] = -((xq[j] + wq[j]) + bq[j])
		}
	}
	for j, nz := range e[2*m : 3*m] { // tanh(g) takes exp(2|g|)
		zg[j] = -nz
		e[2*m+j] = 2 * math.Abs(nz)
	}
	expv(e, e)
	ei, ef, eg, eo := e[:m], e[m:2*m], e[2*m:3*m], e[3*m:]
	hr, cr, cp = hr[lo:], cr[lo:], cp[lo:]
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
