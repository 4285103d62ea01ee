package ingest

import (
	"repro/internal/core"
	"repro/internal/wasm"
)

// Report is the structured result of ingesting one binary: what the
// loader found (sections, diagnostics, names with provenance) and what
// the models predict for every signature element, with normalized
// confidences. In eval mode, labeled elements additionally carry their
// DWARF-derived ground truth and the rank at which the predictions hit
// it.
type Report struct {
	Schema    string `json:"schema"`
	Binary    string `json:"binary"`
	SizeBytes int    `json:"size_bytes"`
	// Error is set when the binary was unusable (bad magic/version); all
	// other fields are then empty.
	Error string `json:"error,omitempty"`
	// DwarfError explains why present-looking DWARF sections could not be
	// read.
	DwarfError string           `json:"dwarf_error,omitempty"`
	Sections   []SectionReport  `json:"sections,omitempty"`
	Funcs      []FunctionReport `json:"functions,omitempty"`
	// Eval summarizes the external evaluation when ground truth was
	// available.
	Eval *EvalReport `json:"eval,omitempty"`
}

// Degraded reports whether any section needed tolerance (anything beyond
// a clean parse).
func (r *Report) Degraded() bool {
	for _, s := range r.Sections {
		if s.Status != "ok" {
			return true
		}
	}
	return false
}

// SectionReport is one section's diagnostic.
type SectionReport struct {
	ID     byte   `json:"id"`
	Name   string `json:"name,omitempty"`
	Offset int    `json:"offset"`
	Size   int    `json:"size"`
	Status string `json:"status"`
	Error  string `json:"error,omitempty"`
}

// sectionReport converts one loader diagnostic to its report shape.
func sectionReport(dg wasm.SectionDiag) SectionReport {
	sr := SectionReport{
		ID: dg.ID, Name: dg.Name, Offset: dg.Offset, Size: dg.Size,
		Status: string(dg.Status),
	}
	if dg.Err != nil {
		sr.Error = dg.Err.Error()
	}
	return sr
}

// FunctionReport covers one module-defined function.
type FunctionReport struct {
	// Index is the function's index in the full index space (imports
	// first), the way tools and the names section number functions.
	Index      int    `json:"index"`
	Name       string `json:"name"`
	NameSource string `json:"name_source"`
	// Signature is the low-level wasm signature; "?" when the type
	// section did not deliver it.
	Signature string          `json:"signature"`
	Elements  []ElementReport `json:"elements,omitempty"`
}

// ElementReport is one signature element (a parameter or the return
// value) with its ranked type predictions.
type ElementReport struct {
	// Element is "param0".."paramN" or "return".
	Element string `json:"element"`
	// LowType is the element's low-level wasm type.
	LowType string `json:"low_type"`
	// Predictions are ranked best-first with normalized confidences.
	Predictions []core.TypePrediction `json:"predictions,omitempty"`
	// Truth is the DWARF-derived label (eval mode only).
	Truth string `json:"truth,omitempty"`
	// TruthRank is the 1-based rank of the exact match among the
	// predictions; 0 when no prediction matched (or outside eval mode).
	TruthRank int `json:"truth_rank,omitempty"`
}

// EvalReport is an accuracy summary over labeled elements.
type EvalReport struct {
	// Labeled counts signature elements with DWARF ground truth.
	Labeled int     `json:"labeled_elements"`
	Top1    float64 `json:"top1"`
	Top5    float64 `json:"top5"`
	TPS     float64 `json:"tps"`
}
