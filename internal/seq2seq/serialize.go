package seq2seq

import (
	"encoding/gob"
	"fmt"
	"io"

	"repro/internal/ad"
)

// modelState is the serialized form of a trained model. Weights are
// stored in parameter-registration order, which is deterministic given
// the config and vocabulary sizes.
type modelState struct {
	Cfg     Config
	SrcToks []string
	TgtToks []string
	Weights [][]float64
}

// Save writes the model (config, vocabularies, weights) to w. A
// float32-resident model (a quantized load) is written with its weights
// widened to float64 (Weights), so the result loads back as a
// full-precision model and content hashes over Save cover the weights.
func (m *Model) Save(w io.Writer) error {
	st := modelState{Cfg: m.Cfg, SrcToks: m.Src.toks, TgtToks: m.Tgt.toks, Weights: m.Weights()}
	return gob.NewEncoder(w).Encode(st)
}

// Weights returns the model's weights in registration order as float64.
// A parameter without float64 storage (float32-resident) is widened from
// its float32 copy, exactly; the others are returned without copying and
// must not be mutated.
func (m *Model) Weights() [][]float64 {
	params := m.params.All()
	out := make([][]float64, len(params))
	for i, v := range params {
		out[i] = v.W
		if len(v.W) == 0 && len(v.W32) > 0 {
			w := make([]float64, len(v.W32))
			for j, x := range v.W32 {
				w[j] = float64(x)
			}
			out[i] = w
		}
	}
	return out
}

// Load reads a model previously written with Save.
func Load(r io.Reader) (*Model, error) {
	var st modelState
	if err := gob.NewDecoder(r).Decode(&st); err != nil {
		return nil, fmt.Errorf("seq2seq: load: %w", err)
	}
	m, err := modelFromState(st)
	if err != nil {
		return nil, fmt.Errorf("seq2seq: load: %w", err)
	}
	return m, nil
}

// modelFromState rebuilds a model from its serialized form.
func modelFromState(st modelState) (*Model, error) {
	src := vocabFromTokens(st.SrcToks)
	tgt := vocabFromTokens(st.TgtToks)
	m := NewModel(st.Cfg, src, tgt)
	params := m.params.All()
	if len(params) != len(st.Weights) {
		return nil, fmt.Errorf("%d weight tensors, model has %d", len(st.Weights), len(params))
	}
	for i, v := range params {
		if len(v.W) != len(st.Weights[i]) {
			return nil, fmt.Errorf("tensor %d has %d weights, model wants %d", i, len(st.Weights[i]), len(v.W))
		}
		copy(v.W, st.Weights[i])
	}
	return m, nil
}

// Params returns the model's parameter tensors in registration order —
// the same order Save serializes and NewModelFromWeights consumes.
// Read-only use (quantized export); mutating them mid-inference races
// with Predict.
func (m *Model) Params() []*ad.V { return m.params.All() }

// VocabTokens returns the source and target vocabulary token lists in
// serialization order (specials included).
func (m *Model) VocabTokens() (src, tgt []string) { return m.Src.toks, m.Tgt.toks }

// NewModelFromWeights rebuilds a model from its config, vocabulary
// token lists, and weight slices in registration order — the layout
// Save/Load use, exposed so quantized checkpoints (internal/quant) can
// reconstruct a model without going through gob.
func NewModelFromWeights(cfg Config, srcToks, tgtToks []string, weights [][]float64) (*Model, error) {
	m, err := modelFromState(modelState{Cfg: cfg, SrcToks: srcToks, TgtToks: tgtToks, Weights: weights})
	if err != nil {
		return nil, fmt.Errorf("seq2seq: from weights: %w", err)
	}
	return m, nil
}

// NewModelFromFill rebuilds a model letting the caller write each
// parameter tensor's storage directly, in registration order — the
// zero-copy loading hook for quantized checkpoints: fill(i, v)
// dequantizes straight into v.W (or v.W32 for the f32 engine) instead
// of materializing an intermediate [][]float64 that modelFromState
// would copy once more and discard. fill may drop storage the engine
// will never read (v.W and v.G on an f32-only load); the model must
// then stay on the matching engine.
func NewModelFromFill(cfg Config, srcToks, tgtToks []string, fill func(i int, v *ad.V) error) (*Model, error) {
	m := NewModel(cfg, vocabFromTokens(srcToks), vocabFromTokens(tgtToks))
	for i, v := range m.params.All() {
		if err := fill(i, v); err != nil {
			return nil, fmt.Errorf("seq2seq: from fill: tensor %d: %w", i, err)
		}
	}
	return m, nil
}

// vocabFromTokens rebuilds a vocabulary from its serialized token list
// (which already includes the specials at the front).
func vocabFromTokens(toks []string) *Vocab {
	v := &Vocab{toks: toks, ids: make(map[string]int, len(toks))}
	for i, t := range toks {
		v.ids[t] = i
	}
	return v
}

// checkpointState is the serialized form of a training checkpoint: the
// current model (weights as of the last completed epoch) plus the
// TrainState needed to continue from there.
type checkpointState struct {
	Model modelState
	State TrainState
}

// SaveCheckpoint writes the model and its mid-training state to w.
// Feeding the result of LoadCheckpoint back into FitResume continues the
// run as if it had never been interrupted.
func (m *Model) SaveCheckpoint(w io.Writer, st *TrainState) error {
	ck := checkpointState{
		Model: modelState{Cfg: m.Cfg, SrcToks: m.Src.toks, TgtToks: m.Tgt.toks},
		State: *st,
	}
	for _, v := range m.params.All() {
		ck.Model.Weights = append(ck.Model.Weights, v.W)
	}
	return gob.NewEncoder(w).Encode(ck)
}

// LoadCheckpoint reads a checkpoint previously written with
// SaveCheckpoint, returning the reconstructed model and the training
// state to pass to FitResume.
func LoadCheckpoint(r io.Reader) (*Model, *TrainState, error) {
	var ck checkpointState
	if err := gob.NewDecoder(r).Decode(&ck); err != nil {
		return nil, nil, fmt.Errorf("seq2seq: load checkpoint: %w", err)
	}
	m, err := modelFromState(ck.Model)
	if err != nil {
		return nil, nil, fmt.Errorf("seq2seq: load checkpoint: %w", err)
	}
	return m, &ck.State, nil
}
