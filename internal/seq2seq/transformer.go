package seq2seq

import (
	"math"
	"math/rand"

	"repro/internal/ad"
	"repro/internal/nn"
)

// tfLayer holds one Transformer encoder layer's parameters
// (single-head self-attention + position-wise feed-forward, post-norm).
type tfLayer struct {
	wq, wk, wv, wo   *nn.Linear
	ln1Gain, ln1Bias *ad.V
	ffn1, ffn2       *nn.Linear
	ln2Gain, ln2Bias *ad.V
}

func newTFLayer(p *nn.Params, name string, r *rand.Rand, h int) *tfLayer {
	ones := func(n string) *ad.V {
		v := p.Add(n, ad.New(1, h))
		for i := range v.W {
			v.W[i] = 1
		}
		return v
	}
	return &tfLayer{
		wq:      nn.NewLinear(p, name+".wq", r, h, h),
		wk:      nn.NewLinear(p, name+".wk", r, h, h),
		wv:      nn.NewLinear(p, name+".wv", r, h, h),
		wo:      nn.NewLinear(p, name+".wo", r, h, h),
		ln1Gain: ones(name + ".ln1g"),
		ln1Bias: p.Add(name+".ln1b", ad.New(1, h)),
		ffn1:    nn.NewLinear(p, name+".ffn1", r, h, 2*h),
		ffn2:    nn.NewLinear(p, name+".ffn2", r, 2*h, h),
		ln2Gain: ones(name + ".ln2g"),
		ln2Bias: p.Add(name+".ln2b", ad.New(1, h)),
	}
}

// posEncoding fills out with the sinusoidal positional vector for
// position t (dim = len(out)).
func posEncoding(out []float64, t int) {
	dim := len(out)
	for i := 0; i < dim; i += 2 {
		freq := math.Pow(10000, -float64(i)/float64(dim))
		out[i] = math.Sin(float64(t) * freq)
		if i+1 < dim {
			out[i+1] = math.Cos(float64(t) * freq)
		}
	}
}

// transformerEncoder is the alternative architecture behind the encoder
// interface: an input projection to Hidden plus EncLayers post-norm
// self-attention layers. Its self-attention reuses the same masked
// attention ops as the decoder, so it inherits their f32 forward
// kernels on f32 inference tapes and their bitwise row independence on
// recording tapes.
type transformerEncoder struct {
	proj   *nn.Linear
	layers []*tfLayer
}

func newTransformerEncoder(p *nn.Params, r *rand.Rand, cfg Config) *transformerEncoder {
	e := &transformerEncoder{
		proj: nn.NewLinear(p, "tf.proj", r, cfg.Embed, cfg.Hidden),
	}
	for l := 0; l < cfg.EncLayers; l++ {
		e.layers = append(e.layers, newTFLayer(p, name("tf.layer", l), r, cfg.Hidden))
	}
	return e
}

func (e *transformerEncoder) encode(m *Model, t *ad.Tape, srcIDs [][]int, train bool) encoded {
	B := len(srcIDs)
	T := len(srcIDs[0])
	H := m.Cfg.Hidden
	flat := make([]float64, B*T)
	for tt := 0; tt < T; tt++ {
		for b := 0; b < B; b++ {
			if srcIDs[b][tt] != PAD {
				flat[b*T+tt] = 1
			}
		}
	}
	// Embed, project to H, add positional encodings. Every position is
	// a tape scope (the encoder interface's recycling rule): only its
	// outputs survive it. Lookup and Gather copy the ids they keep and
	// AddRowsConst keeps no reference to the positional rows, so one
	// buffer of each serves every position. A forward tape projects
	// each distinct token of the call once and gathers every position's
	// rows (nn.Tokens); a recording tape projects every position.
	var table *ad.V
	var tk *nn.Tokens
	if project(t) {
		tk = m.tokens()
		defer m.putTokens(tk)
		for _, row := range srcIDs {
			tk.Add(row...)
		}
		table = e.proj.Apply(t, tk.Embed(t, m.embSrc))
	}
	xs := make([]*ad.V, T)
	ids := make([]int, B)
	full := make([]float64, B*H)
	for tt := 0; tt < T; tt++ {
		mark := t.Mark()
		for b := 0; b < B; b++ {
			ids[b] = srcIDs[b][tt]
		}
		var x *ad.V
		if table != nil {
			x = tk.Gather(t, table, ids)
		} else {
			x = e.proj.Apply(t, m.embSrc.Lookup(t, ids))
		}
		posEncoding(full[:H], tt)
		for b := 1; b < B; b++ {
			copy(full[b*H:(b+1)*H], full[:H])
		}
		xs[tt] = t.AddRowsConst(x, full)
		t.ReleaseSince(mark, xs[tt])
	}

	scale := 1 / math.Sqrt(float64(H))
	for _, layer := range e.layers {
		// Self-attention: stack keys and values once, query per position.
		ks := make([]*ad.V, T)
		vs := make([]*ad.V, T)
		qs := make([]*ad.V, T)
		for tt := 0; tt < T; tt++ {
			mark := t.Mark()
			qs[tt] = layer.wq.Apply(t, xs[tt])
			ks[tt] = layer.wk.Apply(t, xs[tt])
			vs[tt] = layer.wv.Apply(t, xs[tt])
			t.ReleaseSince(mark, qs[tt], ks[tt], vs[tt])
		}
		K := t.StackRows(ks)
		V := t.StackRows(vs)
		next := make([]*ad.V, T)
		for tt := 0; tt < T; tt++ {
			mark := t.Mark()
			scores := t.Scale(t.AttnScores(qs[tt], K, T), scale)
			alpha := t.SoftmaxRowsMasked(scores, flat)
			ctx := t.WeightedSum(alpha, V, H)
			attn := layer.wo.Apply(t, ctx)
			if train && m.Cfg.Dropout > 0 {
				attn = t.Dropout(attn, m.Cfg.Dropout, m.rng.Float64)
			}
			h1 := t.LayerNorm(t.Add(xs[tt], attn), layer.ln1Gain, layer.ln1Bias)
			ff := layer.ffn2.Apply(t, t.ReLU(layer.ffn1.Apply(t, h1)))
			if train && m.Cfg.Dropout > 0 {
				ff = t.Dropout(ff, m.Cfg.Dropout, m.rng.Float64)
			}
			next[tt] = t.LayerNorm(t.Add(h1, ff), layer.ln2Gain, layer.ln2Bias)
			t.ReleaseSince(mark, next[tt])
		}
		xs = next
	}
	stack := t.StackRows(xs)

	// Decoder init: masked mean pool over positions, bridged like the
	// LSTM final states.
	pooled := meanPool(t, xs, flat, B, T)
	init := nn.State{
		H: t.Tanh(m.bridgeH.Apply(t, pooled)),
		C: t.Tanh(m.bridgeC.Apply(t, pooled)),
	}
	return encoded{states: stack, mask: flat, init: init, T: T}
}

// meanPool averages the non-padding positions of a time-major sequence.
func meanPool(t *ad.Tape, xs []*ad.V, flat []float64, B, T int) *ad.V {
	// Per-example weights 1/len, drawn from the tape in its precision,
	// make the pool an attention-like weighted sum over the stacked
	// states.
	w := t.Zeros(B, T)
	for b := 0; b < B; b++ {
		fb := flat[b*T : (b+1)*T]
		n := 0.0
		for _, m := range fb {
			n += m
		}
		if n == 0 {
			n = 1
		}
		for tt, m := range fb {
			if t.F32() {
				w.W32[b*T+tt] = float32(m / n)
			} else {
				w.W[b*T+tt] = m / n
			}
		}
	}
	stack := t.StackRows(xs)
	return t.WeightedSum(w, stack, xs[0].C)
}
