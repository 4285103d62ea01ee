// Package nn provides the neural-network layers and optimizer of the
// SnowWhite model: embeddings, linear layers, LSTM cells, dropout, and
// Adam with gradient clipping — all on top of the internal/ad autodiff
// engine.
package nn

import (
	"fmt"
	"math"
	"math/rand"

	"repro/internal/ad"
)

// Params collects trainable parameters for the optimizer and
// serialization.
type Params struct {
	names []string
	vals  []*ad.V
}

// Add registers a parameter under a unique name.
func (p *Params) Add(name string, v *ad.V) *ad.V {
	for _, n := range p.names {
		if n == name {
			panic(fmt.Sprintf("nn: duplicate parameter %q", name))
		}
	}
	p.names = append(p.names, name)
	p.vals = append(p.vals, v)
	return v
}

// All returns the registered parameters.
func (p *Params) All() []*ad.V { return p.vals }

// Names returns the registered parameter names in registration order —
// the order that also fixes the serialized weight layout.
func (p *Params) Names() []string { return append([]string(nil), p.names...) }

// Count returns the total number of scalar parameters. Elems counts
// whichever storage a parameter carries, so models loaded straight into
// float32 weights (quantized f32 serving) report the same count as
// their float64 twins.
func (p *Params) Count() int {
	n := 0
	for _, v := range p.vals {
		n += v.Elems()
	}
	return n
}

// ZeroGrad clears all gradients.
func (p *Params) ZeroGrad() {
	for _, v := range p.vals {
		v.ZeroGrad()
	}
}

// ReduceGrads overwrites p's gradients with the scaled ordered sum of
// the shard parameter sets' gradients: for every parameter element,
// G = (shard0.G + shard1.G + ... + shardN.G) * scale, summed in
// ascending shard order. Because the bracketing is fixed by shard index
// — never by which worker finished first — the reduction is bitwise
// deterministic at any worker count; scale is typically 1/totalTokens,
// turning per-shard summed losses into the batch-mean gradient. Shard
// gradients are drained (zeroed) as they are read, leaving the shard
// sets ready for the next step. Shards must mirror p's registration
// order and shapes (shadow models built from the same config do).
func (p *Params) ReduceGrads(shards []*Params, scale float64) {
	for si, s := range shards {
		if len(s.vals) != len(p.vals) {
			panic(fmt.Sprintf("nn: ReduceGrads shard %d has %d parameters, want %d", si, len(s.vals), len(p.vals)))
		}
	}
	for pi, v := range p.vals {
		for si, s := range shards {
			sv := s.vals[pi]
			if len(sv.G) != len(v.G) {
				panic(fmt.Sprintf("nn: ReduceGrads shard %d parameter %q has %d gradient elements, want %d",
					si, p.names[pi], len(sv.G), len(v.G)))
			}
		}
		for i := range v.G {
			sum := 0.0
			for _, s := range shards {
				g := &s.vals[pi].G[i]
				sum += *g
				*g = 0
			}
			v.G[i] = sum * scale
		}
	}
}

// xavier initializes a matrix with Glorot-uniform values.
func xavier(r *rand.Rand, rows, cols int) *ad.V {
	v := ad.New(rows, cols)
	limit := math.Sqrt(6.0 / float64(rows+cols))
	for i := range v.W {
		v.W[i] = (r.Float64()*2 - 1) * limit
	}
	return v
}

// Embedding maps token ids to dense vectors.
type Embedding struct {
	Table *ad.V
}

// NewEmbedding builds a [vocab, dim] embedding table.
func NewEmbedding(p *Params, name string, r *rand.Rand, vocab, dim int) *Embedding {
	return &Embedding{Table: p.Add(name, xavier(r, vocab, dim))}
}

// Lookup returns the embedded rows for the given ids as a [len(ids), dim]
// matrix.
func (e *Embedding) Lookup(t *ad.Tape, ids []int) *ad.V {
	return t.Rows(e.Table, ids)
}

// Tokens is the set of distinct token ids of one forward call, for
// computing a per-token input transform once per distinct token instead
// of once per timestep: Add collects the call's ids, Embed looks the
// distinct ones up, the caller transforms those rows (an LSTM's x·Wx, a
// projection) into a table, and Gather hands each timestep its rows of
// the table. Every transform used so is row-wise — each output row
// depends only on its own input row, through the kernels' fixed
// per-element accumulation order — so a gathered row is bitwise the row
// the per-timestep path computes. Forward tapes only: on a recording
// tape shared rows would reorder the gradient sums of the weights and
// the embedding, so training keeps the per-timestep ops. The buffers are
// reused across Reset, so a Tokens kept across calls stops allocating;
// it is not safe for concurrent use.
type Tokens struct {
	row []int // row[id] is 1 + id's row in the table, 0 while absent
	ids []int // the distinct ids, in order of first Add
	idx []int // the rows of the last Gather
}

// Add adds ids to the set.
func (k *Tokens) Add(ids ...int) {
	for _, id := range ids {
		if id >= len(k.row) {
			k.row = append(k.row, make([]int, id+1-len(k.row))...)
		}
		if k.row[id] == 0 {
			k.ids = append(k.ids, id)
			k.row[id] = len(k.ids)
		}
	}
}

// Embed returns the distinct ids' embeddings, one row per distinct id
// in order of first Add.
func (k *Tokens) Embed(t *ad.Tape, e *Embedding) *ad.V {
	return e.Lookup(t, k.ids)
}

// Gather returns the rows of table, a per-token transform of Embed's
// rows, for ids: [len(ids), table.C]. Every id must be in the set.
func (k *Tokens) Gather(t *ad.Tape, table *ad.V, ids []int) *ad.V {
	k.idx = k.idx[:0]
	for _, id := range ids {
		k.idx = append(k.idx, k.row[id]-1)
	}
	return t.Rows(table, k.idx)
}

// Reset empties the set, keeping its buffers.
func (k *Tokens) Reset() {
	for _, id := range k.ids {
		k.row[id] = 0
	}
	k.ids = k.ids[:0]
}

// Linear is an affine layer y = x@W + b.
type Linear struct {
	W, B *ad.V
}

// NewLinear builds a [in, out] affine layer.
func NewLinear(p *Params, name string, r *rand.Rand, in, out int) *Linear {
	return &Linear{
		W: p.Add(name+".W", xavier(r, in, out)),
		B: p.Add(name+".b", ad.New(1, out)),
	}
}

// Apply computes x@W + b.
func (l *Linear) Apply(t *ad.Tape, x *ad.V) *ad.V {
	return t.Add(t.MatMul(x, l.W), l.B)
}

// LSTM is a single LSTM layer applied step by step.
type LSTM struct {
	Wx, Wh, B *ad.V
	Hidden    int
}

// NewLSTM builds an LSTM with the given input and hidden sizes. The
// forget-gate bias is initialized to 1, the standard trick for gradient
// flow early in training.
func NewLSTM(p *Params, name string, r *rand.Rand, in, hidden int) *LSTM {
	l := &LSTM{
		Wx:     p.Add(name+".Wx", xavier(r, in, 4*hidden)),
		Wh:     p.Add(name+".Wh", xavier(r, hidden, 4*hidden)),
		B:      p.Add(name+".b", ad.New(1, 4*hidden)),
		Hidden: hidden,
	}
	for j := hidden; j < 2*hidden; j++ { // forget gate block
		l.B.W[j] = 1
	}
	return l
}

// State is an LSTM's recurrent state.
type State struct {
	H, C *ad.V
}

// ZeroState returns an all-zero state for a batch of the given size,
// drawn from t in the tape's precision: pooled tapes recycle it with the
// rest of the call, and f32 tapes get float32 storage directly instead of
// converting a float64 zero matrix on first use.
func (l *LSTM) ZeroState(t *ad.Tape, batch int) State {
	return State{H: t.Zeros(batch, l.Hidden), C: t.Zeros(batch, l.Hidden)}
}

// GatherState selects rows of a batched recurrent state: row r of the
// result is row idx[r] of s. Batched beam search uses it to hand each
// surviving hypothesis its parent's decoder state for the next step;
// indices may repeat when several survivors share a parent.
func GatherState(t *ad.Tape, s State, idx []int) State {
	return State{H: t.GatherRows(s.H, idx), C: t.GatherRows(s.C, idx)}
}

// Step advances the LSTM one timestep with input x [B, in].
func (l *LSTM) Step(t *ad.Tape, x *ad.V, s State) State {
	return l.StepMasked(t, x, s, nil)
}

// StepMasked advances the LSTM but holds state constant for examples
// whose mask entry is 0 (padding timesteps); a nil mask advances every
// example. The gate nonlinearities and the state update are one
// ad.Tape.LSTMCell, which lays z out in NewLSTM's i, f, g, o order.
//
// On forward tapes, when the live rows are exactly the leading n rows
// (a batch sorted longest first, as batched beam search encodes it),
// both gate GEMMs run on those n rows only: LSTMCell never reads a held
// row's gates, so the skipped rows change no bit. Any other mask, and
// every recording tape, runs the full GEMMs.
func (l *LSTM) StepMasked(t *ad.Tape, x *ad.V, s State, mask []float64) State {
	return l.StepProjected(t, gates(t, x, l.Wx, mask), s, mask)
}

// StepProjected is StepMasked with the input's gate product xw = x·Wx
// [B,4H] already computed — on forward tapes once per distinct token of
// the call (Tokens) and gathered per step. Rows of xw that the mask
// holds may hold anything: LSTMCell's fused path never reads them and
// its composite path discards them.
func (l *LSTM) StepProjected(t *ad.Tape, xw *ad.V, s State, mask []float64) State {
	h, c := t.LSTMCell(xw, gates(t, s.H, l.Wh, mask), l.B, s.H, s.C, mask)
	return State{H: h, C: c}
}

// gates returns x·w, on the leading live rows only when they are the
// mask's live rows and t is a forward tape.
func gates(t *ad.Tape, x, w *ad.V, mask []float64) *ad.V {
	if n, ok := leadingLive(mask); ok && n < len(mask) && !t.Recording() {
		return t.MatMulLeading(x, w, n)
	}
	return t.MatMul(x, w)
}

// leadingLive reports whether mask's nonzero entries are exactly its
// leading n entries, and n; a nil mask has no leading form.
func leadingLive(mask []float64) (n int, ok bool) {
	if mask == nil {
		return 0, false
	}
	for n < len(mask) && mask[n] != 0 {
		n++
	}
	for _, m := range mask[n:] {
		if m != 0 {
			return 0, false
		}
	}
	return n, true
}

// Adam is the Adam optimizer with global-norm gradient clipping.
type Adam struct {
	LR      float64
	Beta1   float64
	Beta2   float64
	Eps     float64
	Clip    float64 // max global gradient norm; 0 disables
	step    int
	m, v    [][]float64
	targets []*ad.V
}

// NewAdam returns an Adam optimizer over the given parameters with the
// paper's defaults (lr 0.001, standard momenta).
func NewAdam(p *Params, lr float64) *Adam {
	a := &Adam{LR: lr, Beta1: 0.9, Beta2: 0.999, Eps: 1e-8, Clip: 5, targets: p.All()}
	for _, v := range a.targets {
		a.m = append(a.m, make([]float64, len(v.W)))
		a.v = append(a.v, make([]float64, len(v.W)))
	}
	return a
}

// GradNorm returns the global L2 norm of all gradients.
func (a *Adam) GradNorm() float64 {
	s := 0.0
	for _, v := range a.targets {
		for _, g := range v.G {
			s += g * g
		}
	}
	return math.Sqrt(s)
}

// AdamState is the optimizer's serializable state — the step count and
// first/second moment estimates in parameter-registration order — which,
// together with the weights, makes training resumable at an epoch
// boundary: a restored optimizer continues the exact update sequence an
// uninterrupted run would have produced.
type AdamState struct {
	Step int
	M, V [][]float64
}

// Export deep-copies the optimizer state for checkpointing.
func (a *Adam) Export() AdamState {
	st := AdamState{Step: a.step}
	for i := range a.targets {
		st.M = append(st.M, append([]float64(nil), a.m[i]...))
		st.V = append(st.V, append([]float64(nil), a.v[i]...))
	}
	return st
}

// Restore overwrites the optimizer state with a previously Exported one.
// The optimizer must have been built over an identically shaped parameter
// set.
func (a *Adam) Restore(st AdamState) error {
	if len(st.M) != len(a.targets) || len(st.V) != len(a.targets) {
		return fmt.Errorf("nn: restore: %d/%d moment tensors, optimizer has %d", len(st.M), len(st.V), len(a.targets))
	}
	for i, v := range a.targets {
		if len(st.M[i]) != len(v.W) || len(st.V[i]) != len(v.W) {
			return fmt.Errorf("nn: restore: tensor %d has %d moments, parameter has %d weights", i, len(st.M[i]), len(v.W))
		}
		copy(a.m[i], st.M[i])
		copy(a.v[i], st.V[i])
	}
	a.step = st.Step
	return nil
}

// Step applies one optimization step and returns the (pre-clip) gradient
// norm.
func (a *Adam) Step() float64 {
	a.step++
	norm := a.GradNorm()
	scale := 1.0
	if a.Clip > 0 && norm > a.Clip {
		scale = a.Clip / norm
	}
	b1c := 1 - math.Pow(a.Beta1, float64(a.step))
	b2c := 1 - math.Pow(a.Beta2, float64(a.step))
	for vi, v := range a.targets {
		m, vv := a.m[vi], a.v[vi]
		for i := range v.W {
			g := v.G[i] * scale
			m[i] = a.Beta1*m[i] + (1-a.Beta1)*g
			vv[i] = a.Beta2*vv[i] + (1-a.Beta2)*g*g
			v.W[i] -= a.LR * (m[i] / b1c) / (math.Sqrt(vv[i]/b2c) + a.Eps)
		}
	}
	return norm
}
