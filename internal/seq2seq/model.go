// Package seq2seq implements the paper's type-prediction model (Section
// 4.2): a 2-layer bidirectional-LSTM encoder over WebAssembly instruction
// tokens, a 1-layer LSTM decoder with Luong global attention over type
// tokens, trained with teacher forcing and Adam, and queried with beam
// search to produce top-k type predictions.
package seq2seq

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"sync"

	"repro/internal/ad"
	"repro/internal/nn"
)

// Special token ids shared by both vocabularies.
const (
	PAD = 0
	BOS = 1
	EOS = 2
	UNK = 3
)

var specials = []string{"<pad>", "<s>", "</s>", "<unk>"}

// Vocab maps tokens to dense ids.
type Vocab struct {
	toks []string
	ids  map[string]int
}

// BuildVocab creates a vocabulary from sequences, keeping the maxSize most
// frequent tokens (0 = unlimited) after the special tokens.
func BuildVocab(seqs [][]string, maxSize int) *Vocab {
	freq := map[string]int{}
	for _, s := range seqs {
		for _, tok := range s {
			freq[tok]++
		}
	}
	type tf struct {
		tok string
		n   int
	}
	all := make([]tf, 0, len(freq))
	for tok, n := range freq {
		all = append(all, tf{tok, n})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].n != all[j].n {
			return all[i].n > all[j].n
		}
		return all[i].tok < all[j].tok
	})
	if maxSize > 0 && len(all) > maxSize {
		all = all[:maxSize]
	}
	v := &Vocab{ids: map[string]int{}}
	for _, s := range specials {
		v.ids[s] = len(v.toks)
		v.toks = append(v.toks, s)
	}
	for _, e := range all {
		if _, ok := v.ids[e.tok]; ok {
			continue
		}
		v.ids[e.tok] = len(v.toks)
		v.toks = append(v.toks, e.tok)
	}
	return v
}

// Size returns the vocabulary size including specials.
func (v *Vocab) Size() int { return len(v.toks) }

// ID returns the id of a token, or UNK.
func (v *Vocab) ID(tok string) int {
	if id, ok := v.ids[tok]; ok {
		return id
	}
	return UNK
}

// Token returns the token for an id.
func (v *Vocab) Token(id int) string {
	if id < 0 || id >= len(v.toks) {
		return "<unk>"
	}
	return v.toks[id]
}

// Encode maps tokens to ids.
func (v *Vocab) Encode(toks []string) []int {
	out := make([]int, len(toks))
	for i, t := range toks {
		out[i] = v.ID(t)
	}
	return out
}

// Decode maps ids back to tokens, stopping at EOS and skipping specials.
func (v *Vocab) Decode(ids []int) []string {
	var out []string
	for _, id := range ids {
		if id == EOS {
			break
		}
		if id == PAD || id == BOS {
			continue
		}
		out = append(out, v.Token(id))
	}
	return out
}

// Config holds the model hyperparameters; the defaults downscale the
// paper's configuration (h=512, e=100, 2+1 layers) to CPU-trainable size
// while keeping the architecture identical.
type Config struct {
	Hidden    int     // decoder hidden size; each encoder direction uses Hidden/2
	Embed     int     // embedding dimension
	EncLayers int     // encoder depth (paper: 2)
	Dropout   float64 // dropout rate (paper: 0.2)
	LR        float64 // Adam learning rate (paper: 0.001)
	BatchSize int
	Epochs    int
	MaxSrcLen int // source truncation (paper: 500)
	MaxTgtLen int // target truncation
	SrcVocab  int // source vocabulary cap (paper: 500 subwords)
	TgtVocab  int
	Seed      int64
	// Encoder selects the encoder architecture: EncoderBiLSTM (default,
	// the paper's model) or EncoderTransformer (the alternative the paper
	// explored without accuracy gains).
	Encoder string
	// Parallelism bounds the worker pools used for training shards,
	// validation scoring, and EvalParallel — the same -j convention as
	// the dataset pipeline; 0 means runtime.NumCPU(). Any value produces
	// bitwise-identical results (weights, losses, predictions).
	Parallelism int
}

// DefaultConfig returns a configuration that trains in minutes on a CPU.
func DefaultConfig() Config {
	return Config{
		Hidden: 64, Embed: 48, EncLayers: 2,
		Dropout: 0.2, LR: 0.002, BatchSize: 32, Epochs: 4,
		MaxSrcLen: 120, MaxTgtLen: 12,
		SrcVocab: 800, TgtVocab: 400,
		Seed: 1,
	}
}

// Model is the trained sequence-to-sequence type predictor.
type Model struct {
	Cfg Config
	Src *Vocab
	Tgt *Vocab

	params  nn.Params
	embSrc  *nn.Embedding
	embTgt  *nn.Embedding
	enc     encoder // architecture selected by Cfg.Encoder
	bridgeH *nn.Linear
	bridgeC *nn.Linear
	dec     *nn.LSTM
	combine *nn.Linear
	out     *nn.Linear

	rng *rand.Rand

	// trainObs receives per-step and per-epoch training callbacks
	// (metrics); zero value means no observer.
	trainObs TrainObserver

	// pools hands each concurrent Predict call its own inference buffer
	// pool, so beam-search tensors recycle across calls without sharing.
	pools sync.Pool
	// toks keeps the distinct-token sets of forward-tape encodes and
	// decode steps between uses (tokens). It is a mutex-guarded free
	// list, not a sync.Pool: a pool may drop a set it is handed, and a
	// dropped set allocates its buffers again on the next call.
	tokMu sync.Mutex
	toks  []*nn.Tokens

	// f32 routes the Predict family onto single-precision forward tapes
	// (ad.NewForwardF32): float32 values end to end, 8-lane FMA kernels,
	// half the working set. Set once via SetPrecision at load time;
	// training entry points cannot reach the f32 kernels by construction
	// (recording tapes never dispatch to them).
	f32 bool
}

// SetPrecision selects the arithmetic width of the Predict family:
// "f64" (the default, exact) or "f32" (single-precision tapes,
// ad.NewForwardF32). Selecting f32 eagerly materializes every
// parameter's float32 view (ad.V.SyncF32), so the conversion happens
// once here rather than racing lazily under concurrent Predict calls.
// Selecting f64 fails on a model whose weights are float32-resident (a
// quantized load), since there are no float64 weights to decode with.
// Call once after loading, before any concurrent use; training ignores
// it by construction.
func (m *Model) SetPrecision(p string) error {
	switch p {
	case "", "f64":
		for _, v := range m.params.All() {
			if len(v.W) == 0 && len(v.W32) > 0 {
				return fmt.Errorf("seq2seq: precision f64 needs float64 weights; this model is float32-resident (use f32)")
			}
		}
		m.f32 = false
	case "f32":
		for _, v := range m.params.All() {
			v.SyncF32()
		}
		m.f32 = true
	default:
		return fmt.Errorf("seq2seq: unknown precision %q (want f64 or f32)", p)
	}
	return nil
}

// Precision reports the arithmetic width Predict runs at.
func (m *Model) Precision() string {
	if m.f32 {
		return "f32"
	}
	return "f64"
}

// inferTape returns the forward tape the Predict family decodes on.
func (m *Model) inferTape(pool *ad.Pool) *ad.Tape {
	if m.f32 {
		return ad.NewForwardF32(pool)
	}
	return ad.NewForward(pool)
}

// getPool draws an inference buffer pool; pools are per-call, never
// shared between goroutines.
func (m *Model) getPool() *ad.Pool {
	if p, ok := m.pools.Get().(*ad.Pool); ok {
		return p
	}
	return ad.NewPool()
}

func (m *Model) putPool(p *ad.Pool) { m.pools.Put(p) }

// projectTokens selects the per-distinct-token input transforms
// (nn.Tokens) on forward tapes. It is a variable, not a constant, so the
// tests can force the per-timestep path on a forward tape and compare
// the two bit for bit (TestTokenProjectionMatchesPerStep); recording
// tapes always take the per-timestep path.
var projectTokens = true

// project reports whether t computes its input transforms once per
// distinct token.
func project(t *ad.Tape) bool { return projectTokens && !t.Recording() }

// tokens draws an empty distinct-token set for one forward encode or
// decode step; putTokens empties it and hands it back.
func (m *Model) tokens() *nn.Tokens {
	m.tokMu.Lock()
	defer m.tokMu.Unlock()
	if n := len(m.toks); n > 0 {
		k := m.toks[n-1]
		m.toks = m.toks[:n-1]
		return k
	}
	return new(nn.Tokens)
}

func (m *Model) putTokens(k *nn.Tokens) {
	k.Reset()
	m.tokMu.Lock()
	m.toks = append(m.toks, k)
	m.tokMu.Unlock()
}

// NewModel builds an untrained model over the given vocabularies.
func NewModel(cfg Config, src, tgt *Vocab) *Model {
	r := rand.New(rand.NewSource(cfg.Seed))
	m := &Model{Cfg: cfg, Src: src, Tgt: tgt, rng: r}
	m.embSrc = nn.NewEmbedding(&m.params, "emb.src", r, src.Size(), cfg.Embed)
	m.embTgt = nn.NewEmbedding(&m.params, "emb.tgt", r, tgt.Size(), cfg.Embed)
	// Encoder parameters register here, between the embeddings and the
	// bridge — the same slot the pre-interface dispatch used — so each
	// architecture's serialized weight order is unchanged.
	m.enc = newEncoder(&m.params, r, cfg)
	m.bridgeH = nn.NewLinear(&m.params, "bridge.h", r, cfg.Hidden, cfg.Hidden)
	m.bridgeC = nn.NewLinear(&m.params, "bridge.c", r, cfg.Hidden, cfg.Hidden)
	m.dec = nn.NewLSTM(&m.params, "dec", r, cfg.Embed, cfg.Hidden)
	m.combine = nn.NewLinear(&m.params, "combine", r, 2*cfg.Hidden, cfg.Hidden)
	m.out = nn.NewLinear(&m.params, "out", r, cfg.Hidden, tgt.Size())
	return m
}

func name(prefix string, l int) string {
	return prefix + strconv.Itoa(l)
}

// NumParams returns the number of scalar parameters.
func (m *Model) NumParams() int { return m.params.Count() }

// encoded is the encoder's output for one batch.
type encoded struct {
	// states is [B*T, H], example-major, for attention.
	states *ad.V
	// mask is [B*T] with 1 for real tokens.
	mask []float64
	// initial decoder state derived from the final encoder states.
	init nn.State
	T    int
}

// attnOps is the decoder's per-search attention operand cache: the
// shared key/value blocks and mask a whole beam search attends over,
// computed once at encode time and read in place by every decode step —
// the LSTM+dot-attention analogue of a KV cache. With Luong dot
// attention the keys and values are both the raw encoder states; an
// encoder that projects separate keys/values (a cross-attention
// Transformer decoder) would fill them here, once, instead of per step.
type attnOps struct {
	// keys is [S*T, H]: S consecutive [T,H] blocks, one per search.
	keys *ad.V
	// mask is [S*T] with 1 for real source positions.
	mask []float64
	T    int
}

// operands returns the attention operands cached in the encoder output.
func (e encoded) operands() attnOps {
	return attnOps{keys: e.states, mask: e.mask, T: e.T}
}

// encode runs the configured encoder over a padded batch.
// srcIDs is [B][T] (padded with PAD); train enables dropout.
func (m *Model) encode(t *ad.Tape, srcIDs [][]int, train bool) encoded {
	return m.enc.encode(m, t, srcIDs, train)
}

// decodeStep advances the decoder one step: prev token ids -> logits.
func (m *Model) decodeStep(t *ad.Tape, enc encoded, s nn.State, prev []int, train bool) (nn.State, *ad.V) {
	return m.decodeStepOn(t, enc.states, enc.mask, enc.T, s, prev, train)
}

// decodeStepOn is decodeStep against an explicit encoder layout:
// encStates is [B*T, H] row-major by batch row then time, mask is [B*T]
// with 1 for real source positions, one example per batch row (training
// and the sequential reference decoder; batched beam search uses
// decodeStepGrouped). Every op in the chain is row-wise independent
// with a fixed ascending-index accumulation order, so a row's outputs
// do not depend on what other rows share the batch — the property the
// batched/sequential decoder equivalence rests on.
func (m *Model) decodeStepOn(t *ad.Tape, encStates *ad.V, mask []float64, T int, s nn.State, prev []int, train bool) (nn.State, *ad.V) {
	s = m.decoderLSTM(t, s, prev)
	scores := t.AttnScores(s.H, encStates, T)
	alpha := t.SoftmaxRowsMasked(scores, mask)
	ctx := t.WeightedSum(alpha, encStates, m.Cfg.Hidden)
	hTilde := t.Tanh(m.combine.Apply(t, t.ConcatCols(ctx, s.H)))
	if train && m.Cfg.Dropout > 0 {
		hTilde = t.Dropout(hTilde, m.Cfg.Dropout, m.rng.Float64)
	}
	logits := m.out.Apply(t, hTilde)
	return s, logits
}

// decodeStepGrouped is the batched beam decoder's step: row l of the
// [L,H] hypothesis batch attends over the shared encoder block
// groups[l] of the encode-time operand cache, read in place by the
// grouped attention ops — no per-hypothesis tiled copy, so the
// attention working set is one [T,H] block per search regardless of
// beam width. Inference-only (no dropout). Per row the chain runs
// decodeStepOn's exact arithmetic (the grouped ops pin this bitwise
// against the tiled formulation), preserving the batched/sequential
// decoder equivalence.
func (m *Model) decodeStepGrouped(t *ad.Tape, ops attnOps, groups []int, s nn.State, prev []int) (nn.State, *ad.V) {
	s = m.decoderLSTM(t, s, prev)
	scores := t.AttnScoresGrouped(s.H, ops.keys, groups, ops.T)
	alpha := t.SoftmaxRowsMaskedGrouped(scores, ops.mask, groups)
	ctx := t.WeightedSumGrouped(alpha, ops.keys, groups, m.Cfg.Hidden)
	hTilde := t.Tanh(m.combine.Apply(t, t.ConcatCols(ctx, s.H)))
	logits := m.out.Apply(t, hTilde)
	return s, logits
}

// decoderLSTM advances the decoder LSTM by one step on the previous
// tokens prev. A forward tape multiplies each distinct previous token's
// embedding by the input weights once and gathers the rows
// (nn.Tokens); a recording tape embeds and multiplies every row.
func (m *Model) decoderLSTM(t *ad.Tape, s nn.State, prev []int) nn.State {
	if !project(t) {
		return m.dec.Step(t, m.embTgt.Lookup(t, prev), s)
	}
	tk := m.tokens()
	defer m.putTokens(tk)
	tk.Add(prev...)
	xw := tk.Gather(t, t.MatMul(tk.Embed(t, m.embTgt), m.dec.Wx), prev)
	return m.dec.StepProjected(t, xw, s, nil)
}
