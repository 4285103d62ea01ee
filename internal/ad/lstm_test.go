package ad

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// expEdges are math.Exp's special inputs and the borders of vexpFMA's
// range, its overflow and its subnormal results.
func expEdges() []float64 {
	xs := []float64{
		0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		-708, 709, 709.78, 709.79, 7.09782712893384e+02,
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64,
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 0.5, -0.5,
	}
	for _, b := range []float64{-708, 709, 709.78, 709.79, 7.09782712893384e+02} {
		xs = append(xs, math.Nextafter(b, math.Inf(1)), math.Nextafter(b, math.Inf(-1)))
	}
	// Subnormal and underflowing results.
	for x := -708.4; x >= -745.2; x -= 0.0999 {
		xs = append(xs, x)
	}
	return append(xs, -745.2, -745.13321910194122, -745.14, -746)
}

// checkExpv runs expv over x into a fresh slice and in place over a
// copy, and requires both to equal math.Exp bit for bit.
func checkExpv(t *testing.T, x []float64) {
	t.Helper()
	o := make([]float64, len(x))
	expv(o, x)
	in := append([]float64(nil), x...)
	expv(in, in)
	bad := 0
	for i, v := range x {
		want := math.Float64bits(math.Exp(v))
		if math.Float64bits(o[i]) != want || math.Float64bits(in[i]) != want {
			if bad++; bad <= 5 {
				t.Errorf("exp(%v) [bits %#x]: expv %#x, aliased %#x, math.Exp %#x",
					v, math.Float64bits(v), math.Float64bits(o[i]), math.Float64bits(in[i]), want)
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d of %d lanes differ from math.Exp", bad, len(x))
	}
}

// TestExpvMatchesMathExp pins expv to math.Exp itself, not a copy of
// it, so a toolchain whose math.Exp changes fails here. Over a million
// inputs (normal, uniform beyond both ends of the kernel's range, raw
// bit patterns, tiny magnitudes) plus the edges, at every length 0–9
// with each edge at every lane, aliased and not, with the vector path
// on (where the host has it) and forced off.
func TestExpvMatchesMathExp(t *testing.T) {
	r := rand.New(rand.NewSource(41))
	const n = 1 << 20
	x := make([]float64, 0, n)
	for len(x) < n {
		switch len(x) % 4 {
		case 0:
			x = append(x, r.NormFloat64()*8)
		case 1:
			x = append(x, (r.Float64()*2-1)*750)
		case 2:
			x = append(x, math.Float64frombits(r.Uint64()))
		default:
			x = append(x, (r.Float64()*2-1)*math.Pow(10, -float64(r.Intn(320))))
		}
	}
	edges := expEdges()
	saved := useFMA
	defer func() { useFMA = saved }()
	for _, fma := range []bool{saved, false} {
		useFMA = fma
		t.Run(fmt.Sprintf("useFMA=%v", fma), func(t *testing.T) {
			checkExpv(t, x)
			checkExpv(t, edges)
			for l := 0; l <= 9; l++ {
				for _, e := range edges {
					for lane := 0; lane < l; lane++ {
						row := make([]float64, l)
						for i := range row {
							row[i] = r.NormFloat64() * 30
						}
						row[lane] = e
						checkExpv(t, row)
					}
				}
				checkExpv(t, x[:l])
			}
		})
	}
}

// TestTanhExpMatchesMathTanh pins tanhExp, fed math.Exp(2|x|) and fed
// expv's batched values, to math.Tanh bit for bit across its three
// branches (the rational form below 0.625, the exp form, saturation
// above 44.01), their borders, ±0, ±Inf and NaN.
func TestTanhExpMatchesMathTanh(t *testing.T) {
	r := rand.New(rand.NewSource(43))
	xs := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.MaxFloat64, -math.MaxFloat64}
	for _, b := range []float64{0.625, 44.01, 0.5 * 8.8029691931113054295988e+01} {
		for _, s := range []float64{1, -1} {
			x := s * b
			xs = append(xs, x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1)))
		}
	}
	for i := 0; i < 1<<18; i++ {
		switch i % 4 {
		case 0:
			xs = append(xs, (r.Float64()*2-1)*0.625)
		case 1:
			xs = append(xs, (r.Float64()*2-1)*45)
		case 2:
			xs = append(xs, r.NormFloat64()*3)
		default:
			xs = append(xs, math.Float64frombits(r.Uint64()))
		}
	}
	e := make([]float64, len(xs))
	for i, x := range xs {
		e[i] = 2 * math.Abs(x)
	}
	expv(e, e)
	bad := 0
	for i, x := range xs {
		want := math.Float64bits(math.Tanh(x))
		one := math.Float64bits(tanhExp(x, math.Exp(2*math.Abs(x))))
		batched := math.Float64bits(tanhExp(x, e[i]))
		if one != want || batched != want {
			if bad++; bad <= 5 {
				t.Errorf("tanh(%v): tanhExp %#x, batched %#x, math.Tanh %#x", x, one, batched, want)
			}
		}
	}
	if bad > 5 {
		t.Errorf("%d of %d inputs differ from math.Tanh", bad, len(xs))
	}
}

// lstmCellReference is the LSTM step as the composite tape ops wrote it
// before LSTMCell existed: the reference the op must reproduce, op for
// op on recording and f32 tapes and bit for bit on fused ones.
func lstmCellReference(t *Tape, xw, hw, b, hPrev, cPrev *V, mask []float64) (h, c *V) {
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

// lstmCellInputs draws one cell's operands. Pre-activations spread from
// the rational-tanh range past tanh saturation and past vexpFMA's range
// (so whole chunks fall back to math.Exp); masked rows additionally get
// NaN and ±Inf gate inputs, which they must never read.
func lstmCellInputs(r *rand.Rand, B, H int, mask []float64) (xw, hw, b, hPrev, cPrev *V) {
	spread := func(v *V) *V {
		for i := range v.W {
			switch r.Intn(8) {
			case 0:
				v.W[i] = (r.Float64()*2 - 1) * 0.6
			case 1:
				v.W[i] = (r.Float64()*2 - 1) * 900
			case 2:
				v.W[i] = (r.Float64()*2 - 1) * 50
			default:
				v.W[i] = r.NormFloat64() * 2
			}
		}
		return v
	}
	xw, hw, b = spread(New(B, 4*H)), spread(New(B, 4*H)), spread(New(1, 4*H))
	hPrev, cPrev = randV(r, B, H), spread(New(B, H))
	specials := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for row, m := range mask {
		if m != 0 {
			continue
		}
		for j := 0; j < 4*H; j++ {
			xw.W[row*4*H+j] = specials[(row+j)%3]
			hw.W[row*4*H+j] = specials[(row+j+1)%3]
		}
	}
	return xw, hw, b, hPrev, cPrev
}

func bitsEqualV(a, b *V) bool { return a.R == b.R && a.C == b.C && bitsEqual(a.W, b.W) }

// TestLSTMCellFusedMatchesComposite: on f64 forward tapes — pooled, with
// recycled buffers on the second round, and pool-less — LSTMCell must
// equal the composite ops on a recording tape bit for bit, for hidden
// sizes around the 4-lane exp chunks and batches with no mask, all rows
// live and mixed masks.
func TestLSTMCellFusedMatchesComposite(t *testing.T) {
	r := rand.New(rand.NewSource(47))
	pool := NewPool()
	for _, H := range []int{1, 3, 8, 32, 33} {
		for _, B := range []int{1, 5, 8} {
			masks := [][]float64{nil, make([]float64, B), make([]float64, B)}
			for i := range masks[1] {
				masks[1][i] = 1
				masks[2][i] = float64(r.Intn(2))
			}
			masks[2][0] = 0
			for mi, mask := range masks {
				xw, hw, b, hPrev, cPrev := lstmCellInputs(r, B, H, mask)
				wantH, wantC := lstmCellReference(NewTape(), xw, hw, b, hPrev, cPrev, mask)
				for round, tape := range []*Tape{NewForward(pool), NewForward(pool), NewForward(nil)} {
					mark := tape.Mark()
					h, c := tape.LSTMCell(xw, hw, b, hPrev, cPrev, mask)
					if !bitsEqualV(h, wantH) || !bitsEqualV(c, wantC) {
						t.Errorf("H=%d B=%d mask %d round %d: fused cell differs from the composite ops\nh %v\nwant %v\nc %v\nwant %v",
							H, B, mi, round, h.W, wantH.W, c.W, wantC.W)
					}
					if tape.Len() != 0 {
						t.Errorf("H=%d B=%d: forward tape recorded %d ops", H, B, tape.Len())
					}
					tape.ReleaseSince(mark)
				}
			}
		}
	}
}

// TestLSTMCellOtherTapesEmitComposite: recording and f32 tapes must run
// exactly the composite ops — the same recorded op count, the same f64
// outputs and gradients, and the same f32 bits.
func TestLSTMCellOtherTapesEmitComposite(t *testing.T) {
	r := rand.New(rand.NewSource(53))
	const B, H = 5, 8
	for _, mask := range [][]float64{nil, {1, 0, 1, 1, 0}} {
		xw, hw, b, hPrev, cPrev := lstmCellInputs(r, B, H, nil)
		// Gradients flow back through every operand: rerun both from
		// fresh copies so each tape accumulates into its own.
		clone := func() []*V {
			var vs []*V
			for _, v := range []*V{xw, hw, b, hPrev, cPrev} {
				w := New(v.R, v.C)
				copy(w.W, v.W)
				vs = append(vs, w)
			}
			return vs
		}
		run := func(cell func(t *Tape, xw, hw, b, hPrev, cPrev *V, mask []float64) (h, c *V)) (*Tape, *V, *V, []*V) {
			tape, in := NewTape(), clone()
			h, c := cell(tape, in[0], in[1], in[2], in[3], in[4], mask)
			loss := sumAll(tape, tape.Add(h, c))
			loss.G[0] = 1
			tape.Backward()
			return tape, h, c, in
		}
		gotTape, gotH, gotC, gotIn := run((*Tape).LSTMCell)
		wantTape, wantH, wantC, wantIn := run(lstmCellReference)
		if gotTape.Len() != wantTape.Len() {
			t.Errorf("mask %v: recording tape holds %d ops, composite %d", mask, gotTape.Len(), wantTape.Len())
		}
		if !bitsEqualV(gotH, wantH) || !bitsEqualV(gotC, wantC) {
			t.Errorf("mask %v: recording-tape outputs differ from the composite ops", mask)
		}
		for i := range gotIn {
			if !bitsEqual(gotIn[i].G, wantIn[i].G) {
				t.Errorf("mask %v: operand %d gradient differs from the composite ops", mask, i)
			}
		}

		for _, v := range []*V{xw, hw, b, hPrev, cPrev} {
			v.SyncF32()
		}
		f32h, f32c := NewForwardF32(NewPool()).LSTMCell(xw, hw, b, hPrev, cPrev, mask)
		refh, refc := lstmCellReference(NewForwardF32(NewPool()), xw, hw, b, hPrev, cPrev, mask)
		if !equalW(f32h, refh) || !equalW(f32c, refc) || len(f32h.W32) != B*H {
			t.Errorf("mask %v: f32 tape outputs differ from the composite ops", mask)
		}
	}
}
