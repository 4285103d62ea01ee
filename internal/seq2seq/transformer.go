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

// posEncoding returns the sinusoidal positional vector for position t.
func posEncoding(t, dim int) []float64 {
	out := make([]float64, dim)
	for i := 0; i < dim; i += 2 {
		freq := math.Pow(10000, -float64(i)/float64(dim))
		out[i] = math.Sin(float64(t) * freq)
		if i+1 < dim {
			out[i+1] = math.Cos(float64(t) * freq)
		}
	}
	return out
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
	// Embed, project to H, add positional encodings.
	xs := make([]*ad.V, T)
	for tt := 0; tt < T; tt++ {
		ids := make([]int, B)
		for b := 0; b < B; b++ {
			ids[b] = srcIDs[b][tt]
		}
		x := e.proj.Apply(t, m.embSrc.Lookup(t, ids))
		pe := posEncoding(tt, H)
		full := make([]float64, B*H)
		for b := 0; b < B; b++ {
			copy(full[b*H:(b+1)*H], pe)
		}
		xs[tt] = t.AddRowsConst(x, full)
	}

	scale := 1 / math.Sqrt(float64(H))
	for _, layer := range e.layers {
		// Self-attention: stack keys and values once, query per position.
		ks := make([]*ad.V, T)
		vs := make([]*ad.V, T)
		qs := make([]*ad.V, T)
		for tt := 0; tt < T; tt++ {
			qs[tt] = layer.wq.Apply(t, xs[tt])
			ks[tt] = layer.wk.Apply(t, xs[tt])
			vs[tt] = layer.wv.Apply(t, xs[tt])
		}
		K := t.StackRows(ks)
		V := t.StackRows(vs)
		next := make([]*ad.V, T)
		for tt := 0; tt < T; tt++ {
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
	// Build per-example weights 1/len as an attention-like weighted sum
	// over the stacked states.
	counts := make([]float64, B)
	for b := 0; b < B; b++ {
		for tt := 0; tt < T; tt++ {
			counts[b] += flat[b*T+tt]
		}
		if counts[b] == 0 {
			counts[b] = 1
		}
	}
	w := ad.New(B, T)
	for b := 0; b < B; b++ {
		for tt := 0; tt < T; tt++ {
			w.Set(b, tt, flat[b*T+tt]/counts[b])
		}
	}
	stack := t.StackRows(xs)
	return t.WeightedSum(w, stack, xs[0].C)
}
