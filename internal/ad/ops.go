package ad

import (
	"fmt"
	"math"
)

// SoftmaxCrossEntropy computes the mean masked cross-entropy between
// logits [B,V] and targets (len B). weights (len B) scales each example's
// contribution; zero weight masks padding. The result is a [1,1] scalar;
// the fused backward is the standard (softmax - onehot) * weight / norm.
func (t *Tape) SoftmaxCrossEntropy(logits *V, targets []int, weights []float64) *V {
	norm := 0.0
	for _, w := range weights {
		norm += w
	}
	if norm == 0 {
		norm = 1
	}
	return t.softmaxCE(logits, targets, weights, norm)
}

// SoftmaxCrossEntropySum is SoftmaxCrossEntropy without the weight
// normalization: the result is the summed weighted cross-entropy. Shard
// workers use it so per-shard losses compose exactly — the batch loss is
// the ordered sum of shard sums times one global 1/totalWeight, which is
// the same arithmetic at any shard count.
func (t *Tape) SoftmaxCrossEntropySum(logits *V, targets []int, weights []float64) *V {
	return t.softmaxCE(logits, targets, weights, 1)
}

func (t *Tape) softmaxCE(logits *V, targets []int, weights []float64, norm float64) *V {
	if t.f32 {
		// Training-only op: the f32 engine is inference-only by design
		// (see NewForwardF32). Fail loudly rather than silently reading
		// the absent float64 storage.
		panic("ad: SoftmaxCrossEntropy on an f32 tape")
	}
	if len(targets) != logits.R || len(weights) != logits.R {
		panic(fmt.Sprintf("ad: SoftmaxCrossEntropy %d logit rows, %d targets, %d weights", logits.R, len(targets), len(weights)))
	}
	B, Vc := logits.R, logits.C
	probs := t.scratch(B * Vc)
	loss := 0.0
	for i := 0; i < B; i++ {
		row := logits.W[i*Vc : (i+1)*Vc]
		max := row[0]
		for _, x := range row {
			if x > max {
				max = x
			}
		}
		sum := 0.0
		for j, x := range row {
			e := math.Exp(x - max)
			probs[i*Vc+j] = e
			sum += e
		}
		for j := range row {
			probs[i*Vc+j] /= sum
		}
		if weights[i] != 0 {
			p := probs[i*Vc+targets[i]]
			if p < 1e-12 {
				p = 1e-12
			}
			loss -= weights[i] * math.Log(p)
		}
	}
	out := t.new(1, 1)
	out.W[0] = loss / norm
	if t.grad {
		tg := append([]int(nil), targets...)
		wt := append([]float64(nil), weights...)
		t.record(func() {
			g := out.G[0] / norm
			for i := 0; i < B; i++ {
				if wt[i] == 0 {
					continue
				}
				for j := 0; j < Vc; j++ {
					d := probs[i*Vc+j]
					if j == tg[i] {
						d -= 1
					}
					logits.G[i*Vc+j] += g * wt[i] * d
				}
			}
		})
	}
	return out
}

// LogSoftmaxRow computes the log-softmax of a single row vector without
// recording gradients; used during inference (beam search).
func LogSoftmaxRow(row []float64) []float64 {
	return logSoftmaxRow(make([]float64, len(row)), row)
}

// LogSoftmaxRow on a tape draws the output buffer from the tape's pool:
// it lives until the tape's next ReleaseExcept or Reset, so callers in a
// recycled loop (beam search decode steps) get an allocation-free
// log-softmax. No gradients are recorded either way.
func (t *Tape) LogSoftmaxRow(row []float64) []float64 {
	return logSoftmaxRow(t.scratch(len(row)), row)
}

func logSoftmaxRow(out, row []float64) []float64 {
	max := row[0]
	for _, x := range row {
		if x > max {
			max = x
		}
	}
	sum := 0.0
	for _, x := range row {
		sum += math.Exp(x - max)
	}
	lse := max + math.Log(sum)
	for i, x := range row {
		out[i] = x - lse
	}
	return out
}

// AttnScores computes Luong dot-product attention scores between a
// decoder state dec [B,H] and per-example encoder states enc [B*T,H]
// (row-major by example, then time): scores[b,t] = dec[b] · enc[b,t].
func (t *Tape) AttnScores(dec, enc *V, T int) *V {
	B, H := dec.R, dec.C
	if enc.R != B*T || enc.C != H {
		panic(fmt.Sprintf("ad: AttnScores enc %dx%d for B=%d T=%d H=%d", enc.R, enc.C, B, T, H))
	}
	if t.f32 && !t.grad {
		out := t.new(B, T)
		attnScores32(out.W32, f32w(dec), f32w(enc), B, T, H)
		return out
	}
	out := t.new(B, T)
	for b := 0; b < B; b++ {
		db := dec.W[b*H : (b+1)*H]
		for tt := 0; tt < T; tt++ {
			eb := enc.W[(b*T+tt)*H : (b*T+tt+1)*H]
			s := 0.0
			for j := 0; j < H; j++ {
				s += db[j] * eb[j]
			}
			out.W[b*T+tt] = s
		}
	}
	if t.grad {
		t.record(func() {
			for b := 0; b < B; b++ {
				db := dec.W[b*H : (b+1)*H]
				dg := dec.G[b*H : (b+1)*H]
				for tt := 0; tt < T; tt++ {
					g := out.G[b*T+tt]
					if g == 0 {
						continue
					}
					eb := enc.W[(b*T+tt)*H : (b*T+tt+1)*H]
					eg := enc.G[(b*T+tt)*H : (b*T+tt+1)*H]
					for j := 0; j < H; j++ {
						dg[j] += g * eb[j]
						eg[j] += g * db[j]
					}
				}
			}
		})
	}
	return out
}

// SoftmaxRowsMasked applies a softmax over each row of a [B,T] matrix,
// treating positions with mask[b*T+t]==0 as -inf (padding).
func (t *Tape) SoftmaxRowsMasked(a *V, mask []float64) *V {
	B, T := a.R, a.C
	if len(mask) != B*T {
		panic("ad: SoftmaxRowsMasked mask length mismatch")
	}
	if t.f32 && !t.grad {
		return t.softmaxRowsMaskedF32(a, mask)
	}
	out := t.new(B, T)
	for b := 0; b < B; b++ {
		max := math.Inf(-1)
		for tt := 0; tt < T; tt++ {
			if mask[b*T+tt] != 0 && a.W[b*T+tt] > max {
				max = a.W[b*T+tt]
			}
		}
		if math.IsInf(max, -1) {
			continue // fully masked row: all-zero attention
		}
		sum := 0.0
		for tt := 0; tt < T; tt++ {
			if mask[b*T+tt] != 0 {
				e := math.Exp(a.W[b*T+tt] - max)
				out.W[b*T+tt] = e
				sum += e
			}
		}
		for tt := 0; tt < T; tt++ {
			out.W[b*T+tt] /= sum
		}
	}
	if t.grad {
		t.record(func() {
			for b := 0; b < B; b++ {
				// dL/dx_i = y_i * (g_i - sum_j g_j y_j)
				dot := 0.0
				for tt := 0; tt < T; tt++ {
					dot += out.G[b*T+tt] * out.W[b*T+tt]
				}
				for tt := 0; tt < T; tt++ {
					a.G[b*T+tt] += out.W[b*T+tt] * (out.G[b*T+tt] - dot)
				}
			}
		})
	}
	return out
}

// WeightedSum computes per-example attention contexts: given weights
// alpha [B,T] and encoder states enc [B*T,H], returns ctx [B,H] with
// ctx[b] = sum_t alpha[b,t] * enc[b,t].
func (t *Tape) WeightedSum(alpha, enc *V, H int) *V {
	B, T := alpha.R, alpha.C
	if enc.R != B*T || enc.C != H {
		panic("ad: WeightedSum shape mismatch")
	}
	if t.f32 && !t.grad {
		out := t.new(B, H)
		weightedSum32(out.W32, f32w(alpha), f32w(enc), B, T, H)
		return out
	}
	out := t.new(B, H)
	for b := 0; b < B; b++ {
		ob := out.W[b*H : (b+1)*H]
		for tt := 0; tt < T; tt++ {
			w := alpha.W[b*T+tt]
			if w == 0 {
				continue
			}
			eb := enc.W[(b*T+tt)*H : (b*T+tt+1)*H]
			for j := 0; j < H; j++ {
				ob[j] += w * eb[j]
			}
		}
	}
	if t.grad {
		t.record(func() {
			for b := 0; b < B; b++ {
				og := out.G[b*H : (b+1)*H]
				for tt := 0; tt < T; tt++ {
					eb := enc.W[(b*T+tt)*H : (b*T+tt+1)*H]
					eg := enc.G[(b*T+tt)*H : (b*T+tt+1)*H]
					w := alpha.W[b*T+tt]
					s := 0.0
					for j := 0; j < H; j++ {
						s += og[j] * eb[j]
						eg[j] += og[j] * w
					}
					alpha.G[b*T+tt] += s
				}
			}
		})
	}
	return out
}

// StackRows builds a [len(vs)*B, C] matrix interleaved by example: row
// (b*T + t) is vs[t]'s row b. It converts a time-major sequence of [B,C]
// states into the example-major layout AttnScores/WeightedSum expect.
func (t *Tape) StackRows(vs []*V) *V {
	T := len(vs)
	B, C := vs[0].R, vs[0].C
	if t.f32 && !t.grad {
		return t.stackRowsF32(vs, T, B, C)
	}
	out := t.new(B*T, C)
	for tt, v := range vs {
		if v.R != B || v.C != C {
			panic("ad: StackRows shape mismatch")
		}
		for b := 0; b < B; b++ {
			copy(out.W[(b*T+tt)*C:(b*T+tt+1)*C], v.W[b*C:(b+1)*C])
		}
	}
	if t.grad {
		t.record(func() {
			for tt, v := range vs {
				for b := 0; b < B; b++ {
					for j := 0; j < C; j++ {
						v.G[b*C+j] += out.G[(b*T+tt)*C+j]
					}
				}
			}
		})
	}
	return out
}

// MaskRows zeroes rows whose mask entry is 0 (used to stop gradient and
// state flow through padding timesteps).
func (t *Tape) MaskRows(a *V, mask []float64) *V {
	if len(mask) != a.R {
		panic("ad: MaskRows mask length mismatch")
	}
	if t.f32 && !t.grad {
		return t.maskRowsF32(a, mask)
	}
	out := t.new(a.R, a.C)
	for i := 0; i < a.R; i++ {
		if mask[i] != 0 {
			copy(out.W[i*a.C:(i+1)*a.C], a.W[i*a.C:(i+1)*a.C])
		}
	}
	if t.grad {
		t.record(func() {
			for i := 0; i < a.R; i++ {
				if mask[i] != 0 {
					for j := 0; j < a.C; j++ {
						a.G[i*a.C+j] += out.G[i*a.C+j]
					}
				}
			}
		})
	}
	return out
}

// Blend returns mask*a + (1-mask)*b row-wise: rows of a where mask is 1,
// rows of b where mask is 0. Used to hold LSTM state constant across
// padding timesteps.
func (t *Tape) Blend(a, b *V, mask []float64) *V {
	sameShape("Blend", a, b)
	if len(mask) != a.R {
		panic("ad: Blend mask length mismatch")
	}
	if t.f32 && !t.grad {
		return t.blendF32(a, b, mask)
	}
	out := t.new(a.R, a.C)
	for i := 0; i < a.R; i++ {
		src := b
		if mask[i] != 0 {
			src = a
		}
		copy(out.W[i*a.C:(i+1)*a.C], src.W[i*a.C:(i+1)*a.C])
	}
	if t.grad {
		t.record(func() {
			for i := 0; i < a.R; i++ {
				dst := b
				if mask[i] != 0 {
					dst = a
				}
				for j := 0; j < a.C; j++ {
					dst.G[i*a.C+j] += out.G[i*a.C+j]
				}
			}
		})
	}
	return out
}
