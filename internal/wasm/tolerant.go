package wasm

import "fmt"

// SectionStatus classifies the outcome of decoding one section in
// tolerant mode.
type SectionStatus string

// Section outcomes, from healthy to unusable.
const (
	// SectionOK: the section parsed cleanly.
	SectionOK SectionStatus = "ok"
	// SectionUnknown: the section id is outside the MVP set; its payload
	// was skipped but the rest of the module parsed on.
	SectionUnknown SectionStatus = "unknown"
	// SectionOutOfOrder: a non-custom section appeared after a
	// higher-numbered one (or twice); it was parsed anyway, last one wins.
	SectionOutOfOrder SectionStatus = "out_of_order"
	// SectionMalformed: the payload was rejected by its decoder; the
	// section's contents were dropped and decoding continued after it.
	SectionMalformed SectionStatus = "malformed"
	// SectionTruncated: the section claims more bytes than the binary
	// holds; decoding stopped at it (the tail framing is unreliable).
	SectionTruncated SectionStatus = "truncated"
)

// SectionDiag records the outcome of decoding one section (or, for the
// code section, one code entry) in tolerant mode.
type SectionDiag struct {
	// ID is the section id (0 for a custom section).
	ID byte
	// Name is the custom section's name, when it parsed.
	Name string
	// Offset is the file offset of the section's id byte; for per-entry
	// code diagnostics it is the entry's code offset (the same value
	// CodeOffsets records).
	Offset int
	// Size is the declared payload size (for code entries: the entry size).
	Size int
	// Status classifies the outcome.
	Status SectionStatus
	// Err is the underlying parse failure for non-ok statuses.
	Err error
}

// Tolerant is the result of a best-effort decode: whatever sections
// parsed, plus one diagnostic per section describing what happened.
type Tolerant struct {
	Decoded *Decoded
	Diags   []SectionDiag
}

// DecodeTolerant parses as much of a WebAssembly binary as it can,
// skipping unknown and malformed sections instead of rejecting the
// module, and degrading gracefully on truncated tails. Real-world
// binaries carry producer metadata, source maps, and occasionally broken
// custom sections; ingestion needs the healthy remainder. It is the only
// section loop: Decode is this loop plus a rejection of any non-ok
// diagnostic.
//
// Only an unusable header (bad magic or version) returns an error. A
// malformed section's contents are dropped wholesale — except for the
// code section, where recovery is per entry: the binary format frames
// every code entry with its size, so a corrupt function body costs only
// that function. CodeOffsets stays index-aligned with Module.Funcs for
// every entry that was at least framed, so DWARF low_pc matching keeps
// working on partially readable binaries.
func DecodeTolerant(data []byte) (*Tolerant, error) {
	r := &reader{buf: data}
	hdr, err := r.bytes(8)
	if err != nil {
		return nil, ErrNotWasm
	}
	for i := 0; i < 4; i++ {
		if hdr[i] != magic[i] {
			return nil, ErrNotWasm
		}
		if hdr[4+i] != version[i] {
			return nil, fmt.Errorf("wasm: unsupported version %x", hdr[4:8])
		}
	}

	m := &Module{}
	d := &Decoded{Module: m}
	t := &Tolerant{Decoded: d}
	lastSec := -1
	for r.remaining() > 0 {
		secOff := r.pos
		id, _ := r.byte() // cannot fail: remaining() > 0
		size, err := r.u32()
		if err != nil {
			t.Diags = append(t.Diags, SectionDiag{ID: id, Offset: secOff, Status: SectionTruncated, Err: err})
			break
		}
		declared := int(size)
		body, err := r.bytes(declared)
		if err != nil {
			t.Diags = append(t.Diags, SectionDiag{ID: id, Offset: secOff, Size: declared, Status: SectionTruncated, Err: err})
			break
		}
		diag := SectionDiag{ID: id, Offset: secOff, Size: declared, Status: SectionOK}
		if id != secCustom && id <= secData {
			if int(id) <= lastSec {
				diag.Status = SectionOutOfOrder
				diag.Err = fmt.Errorf("wasm: section %d out of order", id)
			} else {
				lastSec = int(id)
			}
		}
		base := r.pos - declared
		sr := &reader{buf: body}
		switch {
		case id == secCustom:
			name, err := sr.name()
			if err != nil {
				diag.Status = SectionMalformed
				diag.Err = err
				break
			}
			diag.Name = name
			m.Customs = append(m.Customs, Custom{Name: name, Bytes: append([]byte(nil), body[sr.pos:]...)})
		case id > secData:
			diag.Status = SectionUnknown
			diag.Err = fmt.Errorf("wasm: unknown section id %d", id)
		case id == secCode:
			t.Diags = append(t.Diags, diag)
			t.Diags = append(t.Diags, decodeCodeTolerant(sr, m, d, base)...)
			continue
		default:
			// Parse into a scratch module so a mid-payload failure cannot
			// leave half a section behind; merge only on success.
			probe := &Module{}
			if err := decodeKnownSection(id, sr, probe); err != nil {
				diag.Status = SectionMalformed
				diag.Err = err
				break
			}
			mergeSection(m, probe, id)
		}
		t.Diags = append(t.Diags, diag)
	}
	return t, nil
}

// mergeSection installs one successfully parsed non-code section into the
// module. Duplicate sections (already diagnosed as out of order)
// overwrite: the last occurrence wins.
func mergeSection(m, probe *Module, id byte) {
	switch id {
	case secType:
		m.Types = probe.Types
	case secImport:
		m.Imports = probe.Imports
	case secFunction:
		m.Funcs = probe.Funcs
	case secTable:
		m.Tables = probe.Tables
	case secMemory:
		m.Memories = probe.Memories
	case secGlobal:
		m.Globals = probe.Globals
	case secExport:
		m.Exports = probe.Exports
	case secStart:
		m.Start = probe.Start
	case secElem:
		m.Elems = probe.Elems
	case secData:
		m.Datas = probe.Datas
	}
}

// decodeCodeTolerant parses the code section entry by entry, recovering
// at the next entry's size framing when one body is corrupt. A failed
// entry leaves its function with an empty body but keeps its code offset,
// so function indices and DWARF matching stay aligned.
func decodeCodeTolerant(r *reader, m *Module, d *Decoded, base int) []SectionDiag {
	var diags []SectionDiag
	n, err := r.u32()
	if err != nil {
		return append(diags, SectionDiag{ID: secCode, Offset: base, Status: SectionMalformed, Err: err})
	}
	if int64(n) != int64(len(m.Funcs)) {
		diags = append(diags, SectionDiag{
			ID: secCode, Offset: base, Status: SectionMalformed,
			Err: fmt.Errorf("wasm: code section has %d entries, function section %d", n, len(m.Funcs)),
		})
	}
	for i := 0; int64(i) < int64(n); i++ {
		entryOff := base + r.pos
		size, err := r.u32()
		if err != nil {
			diags = append(diags, SectionDiag{ID: secCode, Offset: entryOff, Status: SectionTruncated, Err: err})
			break
		}
		end := r.pos + int(size)
		if end > len(r.buf) || end < r.pos {
			diags = append(diags, SectionDiag{
				ID: secCode, Offset: entryOff, Size: int(size), Status: SectionTruncated,
				Err: fmt.Errorf("wasm: code entry %d overflows section", i),
			})
			break
		}
		if i < len(m.Funcs) {
			d.CodeOffsets = append(d.CodeOffsets, uint32(entryOff))
			if err := decodeCodeEntry(r, &m.Funcs[i], end); err != nil {
				m.Funcs[i].Locals, m.Funcs[i].Body = nil, nil
				diags = append(diags, SectionDiag{
					ID: secCode, Offset: entryOff, Size: int(size), Status: SectionMalformed,
					Err: fmt.Errorf("wasm: code entry %d: %w", i, err),
				})
			}
		}
		r.pos = end // realign to the declared entry frame
	}
	return diags
}

// decodeCodeEntry parses one code entry's locals and body, bounded at the
// entry's declared end so a corrupt body cannot bleed into the next
// entry's bytes.
func decodeCodeEntry(r *reader, f *Function, end int) error {
	er := &reader{buf: r.buf[:end], pos: r.pos}
	nl, err := er.u32()
	if err != nil {
		return err
	}
	var locals []LocalDecl
	for j := uint32(0); j < nl; j++ {
		cnt, err := er.u32()
		if err != nil {
			return err
		}
		vt, err := er.valType()
		if err != nil {
			return err
		}
		locals = append(locals, LocalDecl{Count: cnt, Type: vt})
	}
	body, err := decodeExpr(er)
	if err != nil {
		return err
	}
	if er.pos != end {
		return fmt.Errorf("wasm: %d trailing bytes", end-er.pos)
	}
	f.Locals, f.Body = locals, body
	r.pos = er.pos
	return nil
}
