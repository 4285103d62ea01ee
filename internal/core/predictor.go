package core

import (
	"fmt"
	"strconv"

	"repro/internal/dwarf"
	"repro/internal/extract"
	"repro/internal/wasm"
)

// TypePrediction is one ranked prediction for a signature element.
type TypePrediction struct {
	Tokens []string `json:"tokens"`
	// Text is the space-joined token sequence, e.g.
	// "pointer primitive float 64".
	Text string `json:"text"`
	// Confidence is the beam's normalized score: softmax over the
	// surviving beams' sequence log-probabilities, so the k predictions
	// for one element sum to 1. Zero (omitted in JSON) for the
	// uninformative fallback, whose score is not comparable.
	Confidence float64 `json:"confidence,omitempty"`
}

// Element is one predictable signature element of a module-defined
// function: a parameter or the return value.
type Element struct {
	// Name is "param0".."paramN" or "return".
	Name string
	// Param is the parameter's index, or -1 for the return value.
	Param int
	// Low is the element's low-level wasm type.
	Low wasm.ValType
}

// IsReturn reports whether the element is the function's return value.
func (e Element) IsReturn() bool { return e.Param < 0 }

// Elements lists the predictable signature elements of a module-defined
// function: its parameters in order, then its return value iff it has
// exactly one result. A function whose type index is out of range (a
// tolerantly decoded module can frame one) has none. Every path that
// predicts whole functions loops over this list, so they agree on which
// elements exist and what they are called.
func Elements(m *wasm.Module, funcIdx int) []Element {
	fn := &m.Funcs[funcIdx]
	if int(fn.TypeIdx) >= len(m.Types) {
		return nil
	}
	sig := m.Types[fn.TypeIdx]
	els := make([]Element, 0, len(sig.Params)+1)
	for pi, low := range sig.Params {
		els = append(els, Element{Name: "param" + strconv.Itoa(pi), Param: pi, Low: low})
	}
	if len(sig.Results) == 1 {
		els = append(els, Element{Name: "return", Param: -1, Low: sig.Results[0]})
	}
	return els
}

// ModelFor returns the task model that answers an element: Param for
// parameters, Return for the return value; nil when the predictor has
// no such model.
func (p *Predictor) ModelFor(el Element) *Trained {
	if el.IsReturn() {
		return p.Return
	}
	return p.Param
}

// Input extracts the model input sequence for one element (from
// Elements) of a module-defined function.
func (p *Predictor) Input(m *wasm.Module, funcIdx int, el Element) []string {
	fn := &m.Funcs[funcIdx]
	if el.IsReturn() {
		return extract.InputForReturn(fn, el.Low, p.Opts)
	}
	return extract.InputForParam(fn, el.Param, el.Low, p.Opts)
}

// ParamInput extracts the model input sequence for one parameter of a
// module-defined function — the data-flow slice plus low-level type that
// the parameter model reads — after checking both indices.
func (p *Predictor) ParamInput(m *wasm.Module, funcIdx, paramIdx int) ([]string, error) {
	if funcIdx < 0 || funcIdx >= len(m.Funcs) {
		return nil, fmt.Errorf("core: function index %d out of range", funcIdx)
	}
	fn := &m.Funcs[funcIdx]
	if int(fn.TypeIdx) >= len(m.Types) {
		return nil, fmt.Errorf("core: function %d has invalid type index", funcIdx)
	}
	sig := m.Types[fn.TypeIdx]
	if paramIdx < 0 || paramIdx >= len(sig.Params) {
		return nil, fmt.Errorf("core: parameter index %d out of range (%d params)", paramIdx, len(sig.Params))
	}
	return extract.InputForParam(fn, paramIdx, sig.Params[paramIdx], p.Opts), nil
}

// ReturnInput extracts the model input sequence for a module-defined
// function's return value after checking the function index.
func (p *Predictor) ReturnInput(m *wasm.Module, funcIdx int) ([]string, error) {
	if funcIdx < 0 || funcIdx >= len(m.Funcs) {
		return nil, fmt.Errorf("core: function index %d out of range", funcIdx)
	}
	fn := &m.Funcs[funcIdx]
	if int(fn.TypeIdx) >= len(m.Types) {
		return nil, fmt.Errorf("core: function %d has invalid type index", funcIdx)
	}
	sig := m.Types[fn.TypeIdx]
	if len(sig.Results) == 0 {
		return nil, fmt.Errorf("core: function %d returns no value", funcIdx)
	}
	return extract.InputForReturn(fn, sig.Results[0], p.Opts), nil
}

// DecodeStripped strictly decodes a wasm binary and strips its DWARF
// custom sections, yielding the module a reverse engineer sees: code
// only, no ground truth. It is the in-process library path behind
// PredictBinary; the ingest, serve, acctest and predict commands load
// binaries tolerantly through ingest.Load instead.
func DecodeStripped(bin []byte) (*wasm.Module, error) {
	d, err := wasm.Decode(bin)
	if err != nil {
		return nil, err
	}
	dwarf.Strip(d.Module)
	return d.Module, nil
}

// PredictBinary decodes a binary, strips its debug info, and predicts all
// parameter and return types of one function, returning them keyed by
// element name ("param0".."paramN", "return").
func (p *Predictor) PredictBinary(bin []byte, funcIdx, k int) (map[string][]TypePrediction, error) {
	m, err := DecodeStripped(bin)
	if err != nil {
		return nil, err
	}
	return p.PredictModule(m, funcIdx, k)
}

// PredictModule predicts every element (see Elements) of one
// module-defined function of an already-decoded (and typically stripped)
// module, keyed by element name. Elements whose task model the predictor
// lacks are left out.
func (p *Predictor) PredictModule(m *wasm.Module, funcIdx, k int) (map[string][]TypePrediction, error) {
	if funcIdx < 0 || funcIdx >= len(m.Funcs) {
		return nil, fmt.Errorf("core: function index %d out of range", funcIdx)
	}
	out := map[string][]TypePrediction{}
	for _, el := range Elements(m, funcIdx) {
		if tr := p.ModelFor(el); tr != nil {
			out[el.Name] = tr.PredictTyped([][]string{p.Input(m, funcIdx, el)}, []int{k})[0]
		}
	}
	return out, nil
}

func wrap(preds [][]string) []TypePrediction {
	out := make([]TypePrediction, 0, len(preds))
	for _, p := range preds {
		out = append(out, TypePrediction{Tokens: p, Text: LabelString(p)})
	}
	return out
}
