// Package accbudget is the accuracy-budget harness for the
// inference-only f32 engine. Quantized weights and single-precision
// fused-rounding kernels (ad.NewForwardF32, internal/quant) trade
// bitwise fidelity for speed; this package measures what that trade
// costs on real queries and enforces a budget on it: the candidate
// (quantized, f32-engine) predictor's top-1 prediction must appear in
// the reference (full-precision) predictor's top-k on at least a
// configured fraction of a held-out evaluation set. scripts/verify.sh
// wires the gate into the standard check; `snowwhite acctest` is the
// CLI entry point.
package accbudget

import (
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/ingest"
)

// Kind says which task model answers a query.
type Kind string

const (
	Param  Kind = "param"
	Return Kind = "return"
)

// Query is one signature element drawn from the evaluation set: the
// prepared model input sequence plus enough provenance to report a
// mismatch usefully.
type Query struct {
	Binary string // relative path of the .wasm file
	Func   int    // module-defined function index
	Elem   string // "param0".."paramN" or "return"
	Kind   Kind
	Src    []string // extracted model input sequence
}

// QueriesFromDir extracts one query per predictable signature element
// from every .wasm binary under root, using the predictor's extraction
// options so candidates see exactly the inputs production prediction
// builds. Binaries load through ingest.Load, so the query set covers the
// elements `snowwhite ingest -eval` reports on; only a binary whose
// header is unusable is skipped (its name is returned for reporting).
// Extraction runs on the stripped module.
func QueriesFromDir(p *core.Predictor, root string) (queries []Query, skipped []string, err error) {
	var paths []string
	err = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".wasm") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, nil, err
	}
	sort.Strings(paths)
	for _, path := range paths {
		rel, rerr := filepath.Rel(root, path)
		if rerr != nil {
			rel = path
		}
		name := filepath.ToSlash(rel)
		data, rerr := os.ReadFile(path)
		if rerr != nil {
			return nil, nil, rerr
		}
		ld, rerr := ingest.Load(data)
		if rerr != nil {
			skipped = append(skipped, name)
			continue
		}
		m := ld.Decoded.Module
		for _, fn := range ld.Funcs {
			for _, el := range fn.Elements {
				if p.ModelFor(el) == nil {
					continue
				}
				kind := Param
				if el.IsReturn() {
					kind = Return
				}
				queries = append(queries, Query{
					Binary: name, Func: fn.Index, Elem: el.Name,
					Kind: kind, Src: p.Input(m, fn.Index, el),
				})
			}
		}
	}
	return queries, skipped, nil
}

// Mismatch records one query where the candidate's top-1 prediction
// left the reference's top-k.
type Mismatch struct {
	Query Query    `json:"query"`
	Ref   []string `json:"ref"`  // reference top-k prediction texts
	Cand  string   `json:"cand"` // candidate top-1 prediction text
}

// maxMismatches caps how many mismatches a report retains; counts keep
// accumulating past the cap.
const maxMismatches = 20

// Report aggregates the agreement between a candidate and a reference
// predictor over one query set.
type Report struct {
	TopK  int `json:"top_k"`
	Total int `json:"total"`
	// Top1Matches counts queries whose candidate top-1 equals the
	// reference top-1 exactly (an informational, stricter metric).
	Top1Matches int `json:"top1_matches"`
	// TopKMatches counts queries whose candidate top-1 appears anywhere
	// in the reference top-k — the gated metric.
	TopKMatches   int        `json:"topk_matches"`
	ParamTotal    int        `json:"param_total"`
	ParamMatches  int        `json:"param_matches"`
	ReturnTotal   int        `json:"return_total"`
	ReturnMatches int        `json:"return_matches"`
	Mismatches    []Mismatch `json:"mismatches,omitempty"`
}

// Top1Agreement is the fraction of queries with exact top-1 agreement.
func (r *Report) Top1Agreement() float64 { return frac(r.Top1Matches, r.Total) }

// TopKAgreement is the fraction of queries whose candidate top-1 lies
// in the reference top-k — the budgeted metric.
func (r *Report) TopKAgreement() float64 { return frac(r.TopKMatches, r.Total) }

func frac(n, d int) float64 {
	if d == 0 {
		return 0
	}
	return float64(n) / float64(d)
}

// Pass reports whether the candidate stays within the accuracy budget.
// An empty query set fails: a gate that never measured anything must
// not pass.
func (r *Report) Pass(budget float64) bool {
	return r.Total > 0 && r.TopKAgreement() >= budget
}

// Compare runs every query through both predictors at beam width k and
// scores whether the candidate's top-1 beam appears in the reference's
// top-k (and, informationally, whether the top-1s agree). Queries
// whose kind has no model on either side are skipped. Both predictors
// decode through the batched path, so this also exercises exactly the
// code the server runs.
func Compare(ref, cand *core.Predictor, queries []Query, k int) *Report {
	rep := &Report{TopK: k}
	compareKind(rep, refModel(ref, Param), refModel(cand, Param), queries, Param)
	compareKind(rep, refModel(ref, Return), refModel(cand, Return), queries, Return)
	return rep
}

func refModel(p *core.Predictor, kind Kind) *core.Trained {
	if p == nil {
		return nil
	}
	if kind == Param {
		return p.Param
	}
	return p.Return
}

func compareKind(rep *Report, ref, cand *core.Trained, queries []Query, kind Kind) {
	if ref == nil || cand == nil {
		return
	}
	var qs []Query
	for _, q := range queries {
		if q.Kind == kind {
			qs = append(qs, q)
		}
	}
	if len(qs) == 0 {
		return
	}
	// Both sides decode at the same beam width: width changes the search
	// itself, so a width-1 candidate would disagree with a width-k
	// reference even for identical models. The candidate's top-1 is the
	// first entry of its width-k beam.
	srcs := make([][]string, len(qs))
	ks := make([]int, len(qs))
	for i, q := range qs {
		srcs[i] = q.Src
		ks[i] = rep.TopK
	}
	refPreds := ref.PredictTyped(srcs, ks)
	candPreds := cand.PredictTyped(srcs, ks)
	for i, q := range qs {
		rep.Total++
		total, matches := &rep.ParamTotal, &rep.ParamMatches
		if kind == Return {
			total, matches = &rep.ReturnTotal, &rep.ReturnMatches
		}
		*total++
		refTexts := make([]string, len(refPreds[i]))
		for j, p := range refPreds[i] {
			refTexts[j] = p.Text
		}
		var candText string
		if len(candPreds[i]) > 0 {
			candText = candPreds[i][0].Text
		}
		// Empty-vs-empty agrees: both sides declined to predict.
		top1 := len(refTexts) == 0 && candText == ""
		topK := top1
		if len(refTexts) > 0 && candText != "" {
			top1 = refTexts[0] == candText
			for _, t := range refTexts {
				if t == candText {
					topK = true
					break
				}
			}
		}
		if top1 {
			rep.Top1Matches++
		}
		if topK {
			rep.TopKMatches++
			*matches++
		} else if len(rep.Mismatches) < maxMismatches {
			rep.Mismatches = append(rep.Mismatches, Mismatch{Query: q, Ref: refTexts, Cand: candText})
		}
	}
}
