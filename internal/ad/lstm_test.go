package ad

import (
	"encoding/binary"
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

// cellOperands unpacks FuzzLSTMCell's input into one cell's operands:
// three rows of H hidden units. Each gate operand is filled unit-major
// and cyclically from its own bytes, read as little-endian float64s
// (none: zeros): unit j of row r takes value 4(rH+j)+q for gate q, so
// a four-value seed sets the i, f, g and o pre-activations of every
// unit alike. cPrev cycles through cs and hPrev is its negation. Mask
// bits 0–2 hold rows 0–2; bit 3 drops the mask.
func cellOperands(h, maskBits uint8, xs, ws, bs, cs []byte) (xw, hw, b, hPrev, cPrev *V, mask []float64) {
	const B = 3
	H := 1 + int(h)%40
	floats := func(p []byte) []float64 {
		f := make([]float64, len(p)/8)
		for i := range f {
			f[i] = math.Float64frombits(binary.LittleEndian.Uint64(p[8*i:]))
		}
		return f
	}
	gates := func(p []byte, rows int) *V {
		v, f := New(rows, 4*H), floats(p)
		if len(f) == 0 {
			return v
		}
		for r := 0; r < rows; r++ {
			for j := 0; j < H; j++ {
				for q := 0; q < 4; q++ {
					v.W[r*4*H+q*H+j] = f[(4*(r*H+j)+q)%len(f)]
				}
			}
		}
		return v
	}
	xw, hw, b = gates(xs, B), gates(ws, B), gates(bs, 1)
	hPrev, cPrev = New(B, H), New(B, H)
	if f := floats(cs); len(f) > 0 {
		for i := range cPrev.W {
			cPrev.W[i] = f[i%len(f)]
			hPrev.W[i] = -cPrev.W[i]
		}
	}
	if maskBits&8 == 0 {
		mask = make([]float64, B)
		for r := range mask {
			if maskBits&(1<<r) == 0 {
				mask[r] = 1
			}
		}
	}
	return xw, hw, b, hPrev, cPrev, mask
}

// f64Bytes packs values as FuzzLSTMCell's operand bytes.
func f64Bytes(xs ...float64) []byte {
	p := make([]byte, 8*len(xs))
	for i, x := range xs {
		binary.LittleEndian.PutUint64(p[8*i:], math.Float64bits(x))
	}
	return p
}

// FuzzLSTMCell: LSTMCell on f64 forward tapes must equal the composite
// ops on a recording tape bit for bit, with the vector kernels on
// (where the host has them), the 4-lane cell off but the AVX2 GEMMs on,
// and both off. NaN matches any NaN: where two NaN operands meet, Go
// leaves which payload survives to the compiler's operand order, so
// only NaN-ness is portable (sameBits). The seeds cover ±0, ±Inf, NaN
// and subnormals; sigmoid arguments at the vector exp's range ends
// (-z = -708 and 709) and one ulp past each; |g| and |c| at tanhExp's
// regime borders 0.625 and 44.01 and one ulp either side; hidden sizes
// around the 4-unit vector; and held rows.
func FuzzLSTMCell(f *testing.F) {
	near := func(x float64) []float64 {
		return []float64{x, math.Nextafter(x, math.Inf(1)), math.Nextafter(x, math.Inf(-1))}
	}
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), math.NaN(),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, 0x1p-1030, math.MaxFloat64}
	var edges []float64
	for _, x := range []float64{708, -708, 709, -709} {
		edges = append(edges, near(x)...)
	}
	var borders []float64
	for _, x := range []float64{0.625, -0.625, 0.5 * tanhMaxLog, -0.5 * tanhMaxLog} {
		borders = append(borders, near(x)...)
	}
	negZero := math.Copysign(0, -1)
	for _, H := range []uint8{1, 3, 4, 5, 32, 33} {
		// z_g = -0 and cPrev = -0, so g and then c are -0, which tanh
		// must return as is.
		f.Add(H, uint8(8), f64Bytes(1, -1, negZero, 2), f64Bytes(negZero), f64Bytes(negZero), f64Bytes(negZero))
		for _, mask := range []uint8{0, 2, 7, 8} {
			f.Add(H, mask, f64Bytes(specials...), f64Bytes(0.5, -1), f64Bytes(0.25), f64Bytes(specials...))
			f.Add(H, mask, f64Bytes(edges...), []byte(nil), []byte(nil), f64Bytes(0.3, -2))
		}
		for _, e := range edges {
			// One gate at a range end, the others ordinary.
			f.Add(H, uint8(8), f64Bytes(e, 0.5, -0.5, 1), f64Bytes(0.5, e, 1, -1), []byte(nil), f64Bytes(1))
			f.Add(H, uint8(8), f64Bytes(0.5, -0.5, 1, e), []byte(nil), []byte(nil), f64Bytes(-1))
		}
		for _, x := range borders {
			// |g| at a border.
			f.Add(H, uint8(8), f64Bytes(1, -1, x, 2), []byte(nil), []byte(nil), f64Bytes(0.7))
			// |c| at a border: σ(f) rounds to 1 and σ(i)·g vanishes
			// beside cPrev, so c = cPrev exactly.
			f.Add(H, uint8(8), f64Bytes(-40, 40, 0.5, 0), []byte(nil), []byte(nil), f64Bytes(x))
		}
	}
	f.Fuzz(func(t *testing.T, h, maskBits uint8, xs, ws, bs, cs []byte) {
		xw, hw, b, hPrev, cPrev, mask := cellOperands(h, maskBits, xs, ws, bs, cs)
		wantH, wantC := lstmCellReference(NewTape(), xw, hw, b, hPrev, cPrev, mask)
		savedAVX2, savedFMA := useAVX2, useFMA
		defer func() { useAVX2, useFMA = savedAVX2, savedFMA }()
		for _, on := range [][2]bool{{savedAVX2, savedFMA}, {savedAVX2, false}, {false, false}} {
			useAVX2, useFMA = on[0], on[1]
			pool := NewPool()
			for round := 0; round < 2; round++ { // fresh, then recycled buffers
				tape := NewForward(pool)
				gotH, gotC := tape.LSTMCell(xw, hw, b, hPrev, cPrev, mask)
				for i := range wantH.W {
					if !sameBits(gotH.W[i], wantH.W[i]) || !sameBits(gotC.W[i], wantC.W[i]) {
						t.Fatalf("useAVX2=%v useFMA=%v round %d H=%d: unit %d h %x c %x, composite h %x c %x",
							on[0], on[1], round, hPrev.C, i,
							math.Float64bits(gotH.W[i]), math.Float64bits(gotC.W[i]),
							math.Float64bits(wantH.W[i]), math.Float64bits(wantC.W[i]))
					}
				}
				tape.ReleaseSince(0)
			}
		}
	})
}

// BenchmarkLSTMCell measures LSTMCell on f64 forward tapes at the
// encoder's step shape (8 live rows × 32 hidden units) and a decoder
// step's (40 hypotheses × 64 units), with the 4-lane cell kernel and
// with the Go loop, in ns per hidden unit. Pre-activations are drawn
// like a trained model's: mostly within a few units of zero.
func BenchmarkLSTMCell(b *testing.B) {
	for _, sh := range []struct {
		name string
		B, H int
	}{{"enc-8x32", 8, 32}, {"dec-40x64", 40, 64}} {
		r := rand.New(rand.NewSource(59))
		xw, hw, bias := randV(r, sh.B, 4*sh.H), randV(r, sh.B, 4*sh.H), randV(r, 1, 4*sh.H)
		hPrev, cPrev := randV(r, sh.B, sh.H), randV(r, sh.B, sh.H)
		for _, vec := range []bool{true, false} {
			name := sh.name + "/go"
			if vec {
				name = sh.name + "/vector"
			}
			b.Run(name, func(b *testing.B) {
				if vec && !useFMA {
					b.Skip("host has no FMA")
				}
				saved := useFMA
				useFMA = vec
				defer func() { useFMA = saved }()
				tape := NewForward(NewPool())
				for i := 0; i < b.N; i++ {
					tape.LSTMCell(xw, hw, bias, hPrev, cPrev, nil)
					tape.ReleaseSince(0)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*sh.B*sh.H), "ns/unit")
			})
		}
	}
}
