package ad

import "math"

// ReLU returns the elementwise rectifier max(0, x).
func (t *Tape) ReLU(a *V) *V {
	if t.f32 && !t.grad {
		return t.reluF32(a)
	}
	out := t.new(a.R, a.C)
	for i := range a.W {
		if a.W[i] > 0 {
			out.W[i] = a.W[i]
		}
	}
	if t.grad {
		t.record(func() {
			for i := range out.G {
				if a.W[i] > 0 {
					a.G[i] += out.G[i]
				}
			}
		})
	}
	return out
}

// LayerNorm normalizes each row to zero mean and unit variance, then
// applies the learned elementwise gain and bias (both [1,C]).
func (t *Tape) LayerNorm(a, gain, bias *V) *V {
	const eps = 1e-5
	R, C := a.R, a.C
	if gain.C != C || bias.C != C || gain.R != 1 || bias.R != 1 {
		panic("ad: LayerNorm parameter shape mismatch")
	}
	if t.f32 && !t.grad {
		return t.layerNormF32(a, gain, bias, eps)
	}
	out := t.newDirty(R, C)
	// Per-row inverse deviations and normalized values for backward,
	// drawn like every other op's backward state so pooled tapes
	// recycle them.
	invStd := t.scratch(R)
	norm := t.scratch(R * C)
	for i := 0; i < R; i++ {
		row := a.W[i*C : (i+1)*C]
		m := 0.0
		for _, x := range row {
			m += x
		}
		m /= float64(C)
		v := 0.0
		for _, x := range row {
			d := x - m
			v += d * d
		}
		v /= float64(C)
		is := 1 / math.Sqrt(v+eps)
		invStd[i] = is
		for j, x := range row {
			nx := (x - m) * is
			norm[i*C+j] = nx
			out.W[i*C+j] = nx*gain.W[j] + bias.W[j]
		}
	}
	if t.grad {
		t.record(func() {
			for i := 0; i < R; i++ {
				// dL/dnorm_j = g_j * gain_j; then the standard layernorm
				// backward through mean and variance.
				var sumDn, sumDnN float64
				dn := make([]float64, C)
				for j := 0; j < C; j++ {
					g := out.G[i*C+j]
					gain.G[j] += g * norm[i*C+j]
					bias.G[j] += g
					dn[j] = g * gain.W[j]
					sumDn += dn[j]
					sumDnN += dn[j] * norm[i*C+j]
				}
				is := invStd[i]
				for j := 0; j < C; j++ {
					a.G[i*C+j] += is * (dn[j] - sumDn/float64(C) - norm[i*C+j]*sumDnN/float64(C))
				}
			}
		})
	}
	return out
}

// AddRowsConst adds a constant (non-learned) matrix to a — used for
// sinusoidal positional encodings.
func (t *Tape) AddRowsConst(a *V, c []float64) *V {
	if t.f32 && !t.grad {
		return t.addRowsConstF32(a, c)
	}
	if len(c) != len(a.W) {
		panic("ad: AddRowsConst length mismatch")
	}
	out := t.newDirty(a.R, a.C)
	for i := range a.W {
		out.W[i] = a.W[i] + c[i]
	}
	if t.grad {
		t.record(func() {
			for i := range out.G {
				a.G[i] += out.G[i]
			}
		})
	}
	return out
}
