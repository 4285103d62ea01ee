package core

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"io"
	"os"

	"repro/internal/ad"
	"repro/internal/bpe"
	"repro/internal/quant"
	"repro/internal/seq2seq"
)

// quantMagic prefixes quantized predictor files so LoadPredictorAuto can
// tell them apart from the gob-only full-precision format (gob streams
// never start with these bytes).
var quantMagic = []byte("SWQP1\n")

// quantTrainedState is the quantized serialized form of one Trained
// task model: everything modelState carries except the weights, which
// are stored as a quant.EncodeMatrices blob in parameter-registration
// order.
type quantTrainedState struct {
	Task     Task
	Cfg      seq2seq.Config
	SrcToks  []string
	TgtToks  []string
	Matrices []byte
	BPE      []byte // empty when subword tokenization was disabled
}

// quantPredictorState pairs the two quantized task models.
type quantPredictorState struct {
	Param  []byte // gob(quantTrainedState), empty if absent
	Return []byte
}

// quantizeTrained converts one Trained into its quantized serialized
// form. A float32-resident model (itself a quantized load) is quantized
// from its float32 weights.
func quantizeTrained(tr *Trained, mode quant.Mode) ([]byte, error) {
	params, weights := tr.Model.Params(), tr.Model.Weights()
	ms := make([]quant.Matrix, len(params))
	for i, v := range params {
		m, err := quant.QuantizeMatrix(v.R, v.C, weights[i], mode)
		if err != nil {
			return nil, fmt.Errorf("tensor %d: %w", i, err)
		}
		ms[i] = m
	}
	st := quantTrainedState{Task: tr.Task, Cfg: tr.Model.Cfg, Matrices: quant.EncodeMatrices(ms)}
	st.SrcToks, st.TgtToks = tr.Model.VocabTokens()
	if tr.BPE != nil {
		var bb bytes.Buffer
		if err := tr.BPE.Save(&bb); err != nil {
			return nil, err
		}
		st.BPE = bb.Bytes()
	}
	var out bytes.Buffer
	if err := gob.NewEncoder(&out).Encode(st); err != nil {
		return nil, err
	}
	return out.Bytes(), nil
}

// trainedFromQuantized rebuilds a Trained from its quantized form,
// dequantizing each matrix straight into float32 parameter storage
// (seq2seq.NewModelFromFill) and dropping the never-read float64 weight
// and gradient buffers, which halves the model's resident memory.
// Quantized weights have already given up bitwise fidelity, so the model
// is pinned to the f32 inference engine and the accuracy-budget harness
// (internal/accbudget) governs the combined error.
func trainedFromQuantized(data []byte) (*Trained, error) {
	var st quantTrainedState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: quantized trained: %w", err)
	}
	ms, err := quant.DecodeMatrices(st.Matrices)
	if err != nil {
		return nil, fmt.Errorf("core: quantized trained: %w", err)
	}
	fill := func(i int, v *ad.V) error {
		if i >= len(ms) {
			return fmt.Errorf("model wants more than the %d stored matrices", len(ms))
		}
		m := &ms[i]
		if m.Rows*m.Cols != v.Elems() {
			return fmt.Errorf("stored matrix is %dx%d, model wants %d elements", m.Rows, m.Cols, v.Elems())
		}
		v.W32 = m.DequantizeF32(v.W32[:0])
		v.W, v.G = nil, nil
		return nil
	}
	model, err := seq2seq.NewModelFromFill(st.Cfg, st.SrcToks, st.TgtToks, fill)
	if err != nil {
		return nil, err
	}
	if n := len(model.Params()); n != len(ms) {
		return nil, fmt.Errorf("core: quantized trained: %d stored matrices, model has %d tensors", len(ms), n)
	}
	if err := model.SetPrecision("f32"); err != nil {
		return nil, err
	}
	tr := &Trained{Task: st.Task, Model: model}
	if len(st.BPE) > 0 {
		if tr.BPE, err = bpe.Load(bytes.NewReader(st.BPE)); err != nil {
			return nil, err
		}
	}
	return tr, nil
}

// ExportQuantized writes a predictor to path in the quantized format:
// the quantMagic prefix followed by a gob stream whose model weights are
// quant-encoded in the given mode. Loading the result (LoadQuantized-
// Predictor or LoadPredictorAuto) yields an f32-engine predictor.
func ExportQuantized(p *Predictor, path string, mode quant.Mode) error {
	var st quantPredictorState
	var err error
	if p.Param != nil {
		if st.Param, err = quantizeTrained(p.Param, mode); err != nil {
			return fmt.Errorf("core: quantize param model: %w", err)
		}
	}
	if p.Return != nil {
		if st.Return, err = quantizeTrained(p.Return, mode); err != nil {
			return fmt.Errorf("core: quantize return model: %w", err)
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if _, err := f.Write(quantMagic); err != nil {
		return err
	}
	return gob.NewEncoder(f).Encode(st)
}

// LoadQuantizedPredictor reads a predictor written with ExportQuantized.
// The returned predictor's models hold float32 weights and run on the
// f32 inference engine; extraction options default to the paper's.
func LoadQuantizedPredictor(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	magic := make([]byte, len(quantMagic))
	if _, err := io.ReadFull(f, magic); err != nil {
		return nil, fmt.Errorf("core: load quantized predictor: %w", err)
	}
	if !bytes.Equal(magic, quantMagic) {
		return nil, fmt.Errorf("core: load quantized predictor: %q is not a quantized predictor file", path)
	}
	var st quantPredictorState
	if err := gob.NewDecoder(f).Decode(&st); err != nil {
		return nil, fmt.Errorf("core: load quantized predictor: %w", err)
	}
	p := &Predictor{Opts: DefaultConfig().Extract}
	if len(st.Param) > 0 {
		if p.Param, err = trainedFromQuantized(st.Param); err != nil {
			return nil, err
		}
	}
	if len(st.Return) > 0 {
		if p.Return, err = trainedFromQuantized(st.Return); err != nil {
			return nil, err
		}
	}
	return p, nil
}

// LoadPredictorAuto loads either predictor format, detecting quantized
// files by their magic prefix. Full-precision files behave exactly as
// LoadPredictor; quantized files come back on the f32 engine.
func LoadPredictorAuto(path string) (*Predictor, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	head := make([]byte, len(quantMagic))
	n, _ := io.ReadFull(f, head)
	f.Close()
	if n == len(quantMagic) && bytes.Equal(head, quantMagic) {
		return LoadQuantizedPredictor(path)
	}
	return LoadPredictor(path)
}

// QuantizePredictor round-trips a predictor's weights through the given
// quantization mode in memory, returning a new predictor whose models
// carry the dequantized weights on the f32 engine — the in-memory
// analogue of LoadQuantizedPredictor. The BPE tokenizers are shared with
// the input (they are immutable after training). Used by the
// accuracy-budget harness to compare full and quantized predictions
// without touching disk.
func QuantizePredictor(p *Predictor, mode quant.Mode) (*Predictor, error) {
	out := &Predictor{Opts: p.Opts}
	quantize := func(tr *Trained) (*Trained, error) {
		data, err := quantizeTrained(tr, mode)
		if err != nil {
			return nil, err
		}
		q, err := trainedFromQuantized(data)
		if err != nil {
			return nil, err
		}
		q.BPE = tr.BPE
		return q, nil
	}
	var err error
	if p.Param != nil {
		if out.Param, err = quantize(p.Param); err != nil {
			return nil, fmt.Errorf("core: quantize param model: %w", err)
		}
	}
	if p.Return != nil {
		if out.Return, err = quantize(p.Return); err != nil {
			return nil, fmt.Errorf("core: quantize return model: %w", err)
		}
	}
	return out, nil
}
