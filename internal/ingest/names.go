package ingest

import (
	"fmt"

	"repro/internal/dwarf"
	"repro/internal/wasm"
)

// NameSource labels where a function's name came from, best source first
// in the fallback chain.
type NameSource string

// Name provenance, in preference order.
const (
	// SourceDWARF: DW_AT_name of the matched subprogram.
	SourceDWARF NameSource = "dwarf"
	// SourceNamesSection: the standard "name" custom section.
	SourceNamesSection NameSource = "names_section"
	// SourceExport: the function is exported under this name.
	SourceExport NameSource = "export"
	// SourceSynthesized: no name anywhere; "func[N]" over the full
	// function index space.
	SourceSynthesized NameSource = "synthesized"
)

// ResolvedName is a function name with its provenance.
type ResolvedName struct {
	Name   string     `json:"name"`
	Source NameSource `json:"source"`
}

// resolveNames names every defined function through the fallback chain:
// DWARF subprogram name (subs is nil outside the report path, which alone
// parses DWARF), then the names section, then an export name, then a
// synthesized index placeholder. Real binaries populate these
// sources unevenly (Wasmizer's survey: most are stripped, some keep the
// name section, nearly all export something), so provenance is part of
// the report, not an implementation detail.
func resolveNames(m *wasm.Module, subs map[int]*dwarf.DIE) []ResolvedName {
	nimp := uint32(m.NumImportedFuncs())

	var ns *wasm.NameSection
	if c := m.Custom("name"); c != nil {
		ns, _ = wasm.DecodeNameSection(c.Bytes) // malformed: fall through
	}

	exports := map[uint32]string{}
	for _, ex := range m.Exports {
		if ex.Kind != wasm.KindFunc {
			continue
		}
		if _, ok := exports[ex.Index]; !ok { // first export wins
			exports[ex.Index] = ex.Name
		}
	}

	out := make([]ResolvedName, len(m.Funcs))
	for i := range m.Funcs {
		idx := nimp + uint32(i)
		switch {
		case subs[i] != nil && subs[i].Name() != "":
			out[i] = ResolvedName{Name: subs[i].Name(), Source: SourceDWARF}
		case ns != nil && ns.Funcs[idx] != "":
			out[i] = ResolvedName{Name: ns.Funcs[idx], Source: SourceNamesSection}
		case exports[idx] != "":
			out[i] = ResolvedName{Name: exports[idx], Source: SourceExport}
		default:
			out[i] = ResolvedName{Name: fmt.Sprintf("func[%d]", idx), Source: SourceSynthesized}
		}
	}
	return out
}
