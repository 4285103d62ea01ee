// Package ingest is the front door for real-world WebAssembly binaries:
// modules the corpus generator never emitted, carrying producer metadata,
// custom sections, partial name information, and occasionally embedded
// DWARF. It layers a tolerant loading policy over internal/wasm (Load,
// the one binary front end that serve, acctest and predict share too),
// resolves the best available function names with explicit provenance,
// predicts parameter and return types for every module-defined function
// through the trained models' batched decoder, and — when DWARF is
// present — runs an external evaluation: DWARF becomes ground truth, the
// binary is stripped, and the predictions are scored against labels the
// training corpus never saw.
package ingest

import (
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/dwarf"
	"repro/internal/metrics"
	"repro/internal/seq2seq"
	"repro/internal/typelang"
	"repro/internal/wasm"
)

// Schema identifies the report format; bump on breaking changes.
const Schema = "snowwhite.ingest/v1"

// Loaded is the per-binary context every front end works from: the
// tolerantly decoded module with its DWARF sections stripped, the section
// diagnostics, and one Func context per module-defined function. The
// ingest report, the server, acctest and predict all start here.
type Loaded struct {
	// Decoded is the module as a reverse engineer sees it: code, names
	// and exports, but no DWARF.
	Decoded *wasm.Decoded
	Diags   []wasm.SectionDiag
	// Funcs holds one context per defined function, in definition order.
	Funcs []Func
	// debug holds the DWARF sections Load stripped, unparsed; nil when
	// the binary embeds no .debug_info. debugErr says why the sections
	// could not be extracted. Only the report path parses them.
	debug    *dwarf.Sections
	debugErr error
}

// Func is the context of one module-defined function.
type Func struct {
	// Index is the defined-function index (into Module.Funcs).
	Index int
	// ResolvedName is the function's name and its provenance. Load never
	// reads DWARF, so the DWARF rung only appears in reports.
	ResolvedName
	// Elements are the predictable signature elements; nil when the type
	// section did not deliver the function's type.
	Elements []core.Element
}

// Load tolerantly decodes a binary, strips its DWARF sections (keeping
// their bytes for the report path) and builds the per-function contexts.
// Only an unusable header fails; everything else degrades into
// diagnostics.
func Load(data []byte) (*Loaded, error) {
	tol, err := wasm.DecodeTolerant(data)
	if err != nil {
		return nil, err
	}
	ld := &Loaded{Decoded: tol.Decoded, Diags: tol.Diags}
	m := tol.Decoded.Module
	if m.Custom(dwarf.SectionInfo) != nil {
		secs, err := dwarf.Extract(m)
		ld.debug, ld.debugErr = &secs, err
	}
	dwarf.Strip(m)
	names := resolveNames(m, nil)
	ld.Funcs = make([]Func, len(m.Funcs))
	for i := range m.Funcs {
		ld.Funcs[i] = Func{Index: i, ResolvedName: names[i], Elements: core.Elements(m, i)}
	}
	return ld, nil
}

// Lookup finds the defined function a selector names: the lowest defined
// index whose resolved name or any of whose export names equals sel.
func (ld *Loaded) Lookup(sel string) (int, bool) {
	best := -1
	for i := range ld.Funcs {
		if ld.Funcs[i].Name == sel {
			best = i
			break
		}
	}
	nimp := ld.Decoded.Module.NumImportedFuncs()
	for _, ex := range ld.Decoded.Module.Exports {
		fi := int(ex.Index) - nimp
		if ex.Kind == wasm.KindFunc && ex.Name == sel && fi >= 0 && fi < len(ld.Funcs) && (best < 0 || fi < best) {
			best = fi
		}
	}
	return best, best >= 0
}

// Degradations lists the section diagnostics that are not ok, in report
// shape; nil for a cleanly decoded binary.
func (ld *Loaded) Degradations() []SectionReport {
	var out []SectionReport
	for _, dg := range ld.Diags {
		if dg.Status != wasm.SectionOK {
			out = append(out, sectionReport(dg))
		}
	}
	return out
}

// readDWARF parses the DWARF sections Load stripped and matches each
// DW_TAG_subprogram to the defined function whose code offset equals its
// DW_AT_low_pc. It returns nil subprograms when the binary embeds no
// DWARF, and an error when present-looking sections are unreadable.
func (ld *Loaded) readDWARF() (map[int]*dwarf.DIE, error) {
	if ld.debug == nil || ld.debugErr != nil {
		return nil, ld.debugErr
	}
	cu, err := dwarf.Read(*ld.debug)
	if err != nil {
		return nil, err
	}
	funcByOffset := make(map[uint32]int, len(ld.Decoded.CodeOffsets))
	for i, off := range ld.Decoded.CodeOffsets {
		funcByOffset[off] = i
	}
	subs := map[int]*dwarf.DIE{}
	for _, sub := range cu.FindAll(dwarf.TagSubprogram) {
		if pc, ok := sub.Uint(dwarf.AttrLowPC); ok {
			if fi, ok := funcByOffset[uint32(pc)]; ok {
				subs[fi] = sub
			}
		}
	}
	return subs, nil
}

// Ingester turns binaries into reports. The zero value (nil predictor)
// produces load-only reports: sections, names, signatures, no
// predictions — the mode the fuzz target drives.
type Ingester struct {
	// Pred supplies the parameter and return models; nil skips
	// prediction.
	Pred *core.Predictor
	// K is the number of ranked predictions per signature element
	// (default 5).
	K int
	// Eval enables the external evaluation harness on DWARF-bearing
	// binaries: ground-truth labels from DWARF, predictions on the
	// stripped module, per-element ranks and a per-binary accuracy
	// summary.
	Eval bool
	// Metrics (may be nil) receives operational counters and latencies.
	Metrics *Metrics
}

func (ing *Ingester) k() int {
	if ing.K > 0 {
		return ing.K
	}
	return 5
}

// Binary ingests one binary. It never fails: an unusable binary yields a
// report whose Error field is set and whose other fields are empty.
func (ing *Ingester) Binary(name string, data []byte) *Report {
	rep, _ := ing.binaryScored(name, data, nil)
	return rep
}

// elemQuery is one signature element queued for batched prediction.
type elemQuery struct {
	fn   int // index into Report.Funcs
	elem int // index into that function's Elements
	src  []string
}

// binaryScored ingests one binary and additionally returns the raw
// accuracy accumulator when evaluation ran (for cross-binary merging).
// memo (may be nil) is the run's prediction memo.
func (ing *Ingester) binaryScored(name string, data []byte, memo *predMemo) (*Report, *metrics.Accuracy) {
	start := time.Now()
	rep := &Report{Schema: Schema, Binary: name, SizeBytes: len(data)}
	ld, err := Load(data)
	if err != nil {
		rep.Error = err.Error()
		ing.Metrics.observe(rep, start)
		return rep, nil
	}
	for _, dg := range ld.Diags {
		rep.Sections = append(rep.Sections, sectionReport(dg))
	}
	subs, err := ld.readDWARF()
	if err != nil {
		rep.DwarfError = err.Error()
	}

	m := ld.Decoded.Module
	// Load named the functions without DWARF; the report adds the DWARF
	// rung. Predictions still run on the stripped module, so they reflect
	// exactly what a reverse engineer gets from the code alone.
	if subs != nil {
		for i, rn := range resolveNames(m, subs) {
			ld.Funcs[i].ResolvedName = rn
		}
	}
	truth := map[[2]int][]string{} // (func, element) -> label tokens
	if ing.Eval && ing.Pred != nil && subs != nil {
		ing.label(ld, subs, truth)
	}

	nimp := m.NumImportedFuncs()
	var paramQ, returnQ []elemQuery
	for _, f := range ld.Funcs {
		fr := FunctionReport{
			Index:      nimp + f.Index,
			Name:       f.Name,
			NameSource: string(f.Source),
			Signature:  "?",
		}
		fn := &m.Funcs[f.Index]
		if int(fn.TypeIdx) < len(m.Types) {
			fr.Signature = m.Types[fn.TypeIdx].String()
		}
		for _, el := range f.Elements {
			if ing.Pred != nil && ing.Pred.ModelFor(el) != nil {
				q := elemQuery{fn: len(rep.Funcs), elem: len(fr.Elements), src: ing.Pred.Input(m, f.Index, el)}
				if el.IsReturn() {
					returnQ = append(returnQ, q)
				} else {
					paramQ = append(paramQ, q)
				}
			}
			fr.Elements = append(fr.Elements, ElementReport{Element: el.Name, LowType: el.Low.String()})
		}
		rep.Funcs = append(rep.Funcs, fr)
	}

	if ing.Pred != nil {
		ing.decode(rep, ing.Pred.Param, roleParam, paramQ, memo)
		ing.decode(rep, ing.Pred.Return, roleReturn, returnQ, memo)
	}

	var acc *metrics.Accuracy
	if len(truth) > 0 {
		acc = ing.score(rep, truth)
	}
	ing.Metrics.observe(rep, start)
	return rep, acc
}

// decode runs one model's queued queries through the batched decoder and
// installs the ranked predictions into the report. With a memo (Dir),
// only queries whose (role, k, input) neither the memo nor an earlier
// query of this call holds are decoded; every other query reuses those
// predictions and counts as reused.
func (ing *Ingester) decode(rep *Report, tr *core.Trained, role byte, qs []elemQuery, memo *predMemo) {
	if tr == nil || len(qs) == 0 {
		return
	}
	k := ing.k()
	var (
		srcs [][]string
		ks   []int
		keys [][32]byte             // memo key of each decoded query
		slot = make([]int, len(qs)) // index into srcs, or -1 for a memo hit
		seen map[[32]byte]int
	)
	for i, q := range qs {
		if memo != nil {
			key := memoKey(role, k, q.src)
			if p, ok := memo.get(key); ok {
				rep.Funcs[q.fn].Elements[q.elem].Predictions = p
				slot[i] = -1
				continue
			}
			if j, ok := seen[key]; ok {
				slot[i] = j
				continue
			}
			if seen == nil {
				seen = map[[32]byte]int{}
			}
			seen[key] = len(srcs)
			keys = append(keys, key)
		}
		slot[i] = len(srcs)
		srcs = append(srcs, q.src)
		ks = append(ks, k)
	}
	var preds [][]core.TypePrediction
	if len(srcs) > 0 {
		preds = tr.PredictTyped(srcs, ks)
	}
	for j, key := range keys {
		memo.put(key, preds[j])
	}
	for i, q := range qs {
		if slot[i] >= 0 {
			rep.Funcs[q.fn].Elements[q.elem].Predictions = preds[slot[i]]
		}
	}
	ing.Metrics.reused(len(qs) - len(srcs))
}

// label converts DWARF subprogram signatures into ground-truth label
// tokens, keyed by (defined-function index, element index). Element
// indices match the report's layout: params first (only when the DWARF
// and wasm parameter counts agree, as in corpus extraction), then the
// return element when both sides have one.
func (ing *Ingester) label(ld *Loaded, subs map[int]*dwarf.DIE, truth map[[2]int][]string) {
	m := ld.Decoded.Module
	for i := range m.Funcs {
		sub, ok := subs[i]
		if !ok || int(m.Funcs[i].TypeIdx) >= len(m.Types) {
			continue
		}
		sig := m.Types[m.Funcs[i].TypeIdx]
		params := sub.FindAll(dwarf.TagFormalParameter)
		if len(params) == len(sig.Params) {
			for pi, pdie := range params {
				master := typelang.FromDWARF(pdie.TypeRef(), typelang.AllNames())
				truth[[2]int{i, pi}] = ing.Pred.Param.Task.Variant.Apply(master, vocabNames(ing.Pred.Param))
			}
		}
		if ret := sub.TypeRef(); ret != nil && len(sig.Results) == 1 && ing.Pred.Return != nil {
			master := typelang.FromDWARF(ret, typelang.AllNames())
			truth[[2]int{i, len(sig.Params)}] = ing.Pred.Return.Task.Variant.Apply(master, vocabNames(ing.Pred.Return))
		}
	}
}

// vocabNames approximates the training-time common-name filter with
// target-vocabulary membership: a struct/typedef name the model could
// never emit (it is not in the vocabulary) is dropped from the label the
// same way rare names were dropped from training labels. Name tokens are
// stored quoted (see typelang tokens), so membership is checked on the
// quoted form.
func vocabNames(tr *core.Trained) func(string) bool {
	return func(name string) bool {
		return tr.Model.Tgt.ID(strconv.Quote(name)) != seq2seq.UNK
	}
}

// score annotates labeled elements with their ground truth and the rank
// at which the predictions hit it, and summarizes per-binary accuracy.
func (ing *Ingester) score(rep *Report, truth map[[2]int][]string) *metrics.Accuracy {
	// Element keys are per defined function; report functions are in
	// definition order, so defined-function index == report index.
	acc := &metrics.Accuracy{}
	for key, tgt := range truth {
		fi, ei := key[0], key[1]
		if fi >= len(rep.Funcs) || ei >= len(rep.Funcs[fi].Elements) {
			continue
		}
		el := &rep.Funcs[fi].Elements[ei]
		el.Truth = core.LabelString(tgt)
		var preds [][]string
		for _, p := range el.Predictions {
			preds = append(preds, p.Tokens)
		}
		acc.Add(preds, tgt)
		for rank, p := range preds {
			if core.LabelString(p) == el.Truth {
				el.TruthRank = rank + 1
				break
			}
		}
	}
	rep.Eval = evalReport(acc)
	return acc
}

// evalReport summarizes an accuracy accumulator for the report.
func evalReport(acc *metrics.Accuracy) *EvalReport {
	return &EvalReport{
		Labeled: acc.N(),
		Top1:    acc.Top1(),
		Top5:    acc.Top5(),
		TPS:     acc.TPS(),
	}
}
