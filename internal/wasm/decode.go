package wasm

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"strings"

	"repro/internal/leb128"
)

// Magic and version of the WebAssembly binary format.
var (
	magic   = []byte{0x00, 0x61, 0x73, 0x6d}
	version = []byte{0x01, 0x00, 0x00, 0x00}
)

// ErrNotWasm is returned when the input does not start with the wasm magic.
var ErrNotWasm = errors.New("wasm: not a WebAssembly binary")

// ErrMalformedSection reports a decoding failure localized to one section:
// which section rejected its payload (by id) and where it sits in the
// file. Decode wraps every section-level failure in it, so callers can
// classify failures with errors.As instead of matching message strings.
type ErrMalformedSection struct {
	// ID is the section id (0 for a custom section).
	ID byte
	// Offset is the file offset of the section's id byte, or for a
	// failing code entry that entry's code offset (as SectionDiag
	// reports it).
	Offset int
	// Err is the underlying cause.
	Err error
}

func (e *ErrMalformedSection) Error() string {
	msg := e.Err.Error()
	msg = strings.TrimPrefix(msg, "wasm: ")
	return fmt.Sprintf("wasm: malformed section %d at offset %d: %s", e.ID, e.Offset, msg)
}

func (e *ErrMalformedSection) Unwrap() error { return e.Err }

// reader is a cursor over the binary with absolute-offset tracking, so
// function code offsets can be reported for DWARF matching.
type reader struct {
	buf []byte
	pos int
}

func (r *reader) remaining() int { return len(r.buf) - r.pos }

func (r *reader) bytes(n int) ([]byte, error) {
	if n < 0 || r.remaining() < n {
		return nil, fmt.Errorf("wasm: truncated at offset %d (need %d bytes)", r.pos, n)
	}
	b := r.buf[r.pos : r.pos+n]
	r.pos += n
	return b, nil
}

func (r *reader) byte() (byte, error) {
	b, err := r.bytes(1)
	if err != nil {
		return 0, err
	}
	return b[0], nil
}

func (r *reader) u32() (uint32, error) {
	v, n, err := leb128.Uint(r.buf[r.pos:], 32)
	if err != nil {
		return 0, fmt.Errorf("wasm: at offset %d: %w", r.pos, err)
	}
	r.pos += n
	return uint32(v), nil
}

func (r *reader) s32() (int32, error) {
	v, n, err := leb128.Int(r.buf[r.pos:], 32)
	if err != nil {
		return 0, fmt.Errorf("wasm: at offset %d: %w", r.pos, err)
	}
	r.pos += n
	return int32(v), nil
}

func (r *reader) s64() (int64, error) {
	v, n, err := leb128.Int(r.buf[r.pos:], 64)
	if err != nil {
		return 0, fmt.Errorf("wasm: at offset %d: %w", r.pos, err)
	}
	r.pos += n
	return v, nil
}

func (r *reader) s33() (int64, error) {
	v, n, err := leb128.Int(r.buf[r.pos:], 33)
	if err != nil {
		return 0, fmt.Errorf("wasm: at offset %d: %w", r.pos, err)
	}
	r.pos += n
	return v, nil
}

func (r *reader) name() (string, error) {
	n, err := r.u32()
	if err != nil {
		return "", err
	}
	b, err := r.bytes(int(n))
	if err != nil {
		return "", err
	}
	return string(b), nil
}

func (r *reader) valType() (ValType, error) {
	b, err := r.byte()
	if err != nil {
		return 0, err
	}
	vt := ValType(b)
	if !vt.Valid() {
		return 0, fmt.Errorf("wasm: invalid value type 0x%02x at offset %d", b, r.pos-1)
	}
	return vt, nil
}

func (r *reader) limits() (Limits, error) {
	flag, err := r.byte()
	if err != nil {
		return Limits{}, err
	}
	min, err := r.u32()
	if err != nil {
		return Limits{}, err
	}
	l := Limits{Min: min}
	switch flag {
	case 0:
	case 1:
		l.HasMax = true
		if l.Max, err = r.u32(); err != nil {
			return Limits{}, err
		}
	default:
		return Limits{}, fmt.Errorf("wasm: invalid limits flag 0x%02x", flag)
	}
	return l, nil
}

// Decoded is a decoded module along with layout information (per-function
// code offsets) needed to match functions to DWARF low_pc values.
type Decoded struct {
	Module *Module
	// CodeOffsets[i] is the file offset of the i-th module-defined
	// function's code entry (the offset of its size field), matching
	// what the encoder reports and what the DWARF emitter records
	// as DW_AT_low_pc.
	CodeOffsets []uint32
}

// Decode parses a complete WebAssembly binary and rejects anything short
// of a clean parse. It runs the same section loop as DecodeTolerant and
// returns the first diagnostic that is not ok as an *ErrMalformedSection,
// or an error when the function and code sections disagree on how many
// functions the module defines.
func Decode(data []byte) (*Decoded, error) {
	t, err := DecodeTolerant(data)
	if err != nil {
		return nil, err
	}
	for _, dg := range t.Diags {
		if dg.Status != SectionOK {
			return nil, &ErrMalformedSection{ID: dg.ID, Offset: dg.Offset, Err: dg.Err}
		}
	}
	d := t.Decoded
	if len(d.CodeOffsets) != len(d.Module.Funcs) {
		return nil, fmt.Errorf("wasm: function section has %d entries but code section has %d", len(d.Module.Funcs), len(d.CodeOffsets))
	}
	return d, nil
}

// decodeKnownSection dispatches a non-custom, non-code section payload to
// its decoder. The code section is framed per entry and decoded by
// decodeCodeTolerant.
func decodeKnownSection(id byte, sr *reader, m *Module) error {
	switch id {
	case secType:
		return decodeTypeSection(sr, m)
	case secImport:
		return decodeImportSection(sr, m)
	case secFunction:
		return decodeFunctionSection(sr, m)
	case secTable:
		return decodeTableSection(sr, m)
	case secMemory:
		return decodeMemorySection(sr, m)
	case secGlobal:
		return decodeGlobalSection(sr, m)
	case secExport:
		return decodeExportSection(sr, m)
	case secStart:
		idx, err := sr.u32()
		if err != nil {
			return err
		}
		m.Start = &idx
		return nil
	case secElem:
		return decodeElemSection(sr, m)
	case secData:
		return decodeDataSection(sr, m)
	}
	return fmt.Errorf("wasm: unknown section id %d", id)
}

func decodeTypeSection(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		b, err := r.byte()
		if err != nil {
			return err
		}
		if b != 0x60 {
			return fmt.Errorf("wasm: expected functype 0x60, got 0x%02x", b)
		}
		var ft FuncType
		np, err := r.u32()
		if err != nil {
			return err
		}
		for j := uint32(0); j < np; j++ {
			vt, err := r.valType()
			if err != nil {
				return err
			}
			ft.Params = append(ft.Params, vt)
		}
		nr, err := r.u32()
		if err != nil {
			return err
		}
		if nr > 1 {
			return fmt.Errorf("wasm: multi-value results not supported (%d results)", nr)
		}
		for j := uint32(0); j < nr; j++ {
			vt, err := r.valType()
			if err != nil {
				return err
			}
			ft.Results = append(ft.Results, vt)
		}
		m.Types = append(m.Types, ft)
	}
	return nil
}

func decodeImportSection(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var imp Import
		if imp.Module, err = r.name(); err != nil {
			return err
		}
		if imp.Name, err = r.name(); err != nil {
			return err
		}
		kind, err := r.byte()
		if err != nil {
			return err
		}
		imp.Kind = ExternKind(kind)
		switch imp.Kind {
		case KindFunc:
			if imp.TypeIdx, err = r.u32(); err != nil {
				return err
			}
		case KindTable:
			et, err := r.byte()
			if err != nil {
				return err
			}
			if et != 0x70 {
				return fmt.Errorf("wasm: unsupported table element type 0x%02x", et)
			}
			if imp.Table.Limits, err = r.limits(); err != nil {
				return err
			}
		case KindMemory:
			if imp.Mem, err = r.limits(); err != nil {
				return err
			}
		case KindGlobal:
			vt, err := r.valType()
			if err != nil {
				return err
			}
			mut, err := r.byte()
			if err != nil {
				return err
			}
			imp.Global = GlobalType{Type: vt, Mutable: mut == 1}
		default:
			return fmt.Errorf("wasm: invalid import kind %d", kind)
		}
		m.Imports = append(m.Imports, imp)
	}
	return nil
}

func decodeFunctionSection(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		ti, err := r.u32()
		if err != nil {
			return err
		}
		m.Funcs = append(m.Funcs, Function{TypeIdx: ti})
	}
	return nil
}

func decodeTableSection(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		et, err := r.byte()
		if err != nil {
			return err
		}
		if et != 0x70 {
			return fmt.Errorf("wasm: unsupported table element type 0x%02x", et)
		}
		lim, err := r.limits()
		if err != nil {
			return err
		}
		m.Tables = append(m.Tables, Table{Limits: lim})
	}
	return nil
}

func decodeMemorySection(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		lim, err := r.limits()
		if err != nil {
			return err
		}
		m.Memories = append(m.Memories, lim)
	}
	return nil
}

func decodeGlobalSection(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		vt, err := r.valType()
		if err != nil {
			return err
		}
		mut, err := r.byte()
		if err != nil {
			return err
		}
		init, err := decodeExpr(r)
		if err != nil {
			return err
		}
		m.Globals = append(m.Globals, Global{Type: GlobalType{Type: vt, Mutable: mut == 1}, Init: init})
	}
	return nil
}

func decodeExportSection(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		var ex Export
		if ex.Name, err = r.name(); err != nil {
			return err
		}
		kind, err := r.byte()
		if err != nil {
			return err
		}
		ex.Kind = ExternKind(kind)
		if ex.Index, err = r.u32(); err != nil {
			return err
		}
		m.Exports = append(m.Exports, ex)
	}
	return nil
}

func decodeElemSection(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		flag, err := r.u32()
		if err != nil {
			return err
		}
		if flag != 0 {
			return fmt.Errorf("wasm: unsupported element segment flag %d", flag)
		}
		off, err := decodeExpr(r)
		if err != nil {
			return err
		}
		cnt, err := r.u32()
		if err != nil {
			return err
		}
		// Each function index takes at least one byte; a count beyond the
		// remaining input is corrupt and must not drive the allocation.
		if int64(cnt) > int64(r.remaining()) {
			return fmt.Errorf("wasm: element segment declares %d functions with %d bytes left", cnt, r.remaining())
		}
		fns := make([]uint32, cnt)
		for j := range fns {
			if fns[j], err = r.u32(); err != nil {
				return err
			}
		}
		m.Elems = append(m.Elems, Elem{Offset: off, Funcs: fns})
	}
	return nil
}

func decodeDataSection(r *reader, m *Module) error {
	n, err := r.u32()
	if err != nil {
		return err
	}
	for i := uint32(0); i < n; i++ {
		flag, err := r.u32()
		if err != nil {
			return err
		}
		if flag != 0 {
			return fmt.Errorf("wasm: unsupported data segment flag %d", flag)
		}
		off, err := decodeExpr(r)
		if err != nil {
			return err
		}
		cnt, err := r.u32()
		if err != nil {
			return err
		}
		b, err := r.bytes(int(cnt))
		if err != nil {
			return err
		}
		m.Datas = append(m.Datas, Data{Offset: off, Bytes: append([]byte(nil), b...)})
	}
	return nil
}

// decodeExpr reads instructions until the matching top-level `end`, which
// is consumed but not included in the result.
func decodeExpr(r *reader) ([]Instr, error) {
	var out []Instr
	depth := 0
	for {
		in, err := decodeInstr(r)
		if err != nil {
			return nil, err
		}
		switch in.Op {
		case OpBlock, OpLoop, OpIf:
			depth++
		case OpEnd:
			if depth == 0 {
				return out, nil
			}
			depth--
		}
		out = append(out, in)
	}
}

func decodeInstr(r *reader) (Instr, error) {
	b, err := r.byte()
	if err != nil {
		return Instr{}, err
	}
	op := Opcode(b)
	if !op.Known() {
		return Instr{}, fmt.Errorf("wasm: unknown opcode 0x%02x at offset %d", b, r.pos-1)
	}
	in := Instr{Op: op}
	switch op.Imm() {
	case ImmNone:
	case ImmBlockType:
		if in.Imm, err = r.s33(); err != nil {
			return Instr{}, err
		}
	case ImmLabel, ImmFunc, ImmLocal, ImmGlobal:
		v, err := r.u32()
		if err != nil {
			return Instr{}, err
		}
		in.Imm = int64(v)
	case ImmBrTable:
		n, err := r.u32()
		if err != nil {
			return Instr{}, err
		}
		// Each label takes at least one byte; cap the allocation by the
		// remaining input so a corrupt count cannot exhaust memory.
		if int64(n) > int64(r.remaining()) {
			return Instr{}, fmt.Errorf("wasm: br_table declares %d targets with %d bytes left", n, r.remaining())
		}
		in.Table = make([]uint32, n)
		for i := range in.Table {
			if in.Table[i], err = r.u32(); err != nil {
				return Instr{}, err
			}
		}
		def, err := r.u32()
		if err != nil {
			return Instr{}, err
		}
		in.Imm = int64(def)
	case ImmCallInd:
		ti, err := r.u32()
		if err != nil {
			return Instr{}, err
		}
		tbl, err := r.byte()
		if err != nil {
			return Instr{}, err
		}
		in.Imm, in.Imm2 = int64(ti), int64(tbl)
	case ImmMem:
		align, err := r.u32()
		if err != nil {
			return Instr{}, err
		}
		off, err := r.u32()
		if err != nil {
			return Instr{}, err
		}
		in.Imm, in.Imm2 = int64(align), int64(off)
	case ImmMemSize:
		if _, err := r.byte(); err != nil {
			return Instr{}, err
		}
	case ImmI32:
		v, err := r.s32()
		if err != nil {
			return Instr{}, err
		}
		in.Imm = int64(v)
	case ImmI64:
		if in.Imm, err = r.s64(); err != nil {
			return Instr{}, err
		}
	case ImmF32:
		b, err := r.bytes(4)
		if err != nil {
			return Instr{}, err
		}
		in.F32 = math.Float32frombits(binary.LittleEndian.Uint32(b))
	case ImmF64:
		b, err := r.bytes(8)
		if err != nil {
			return Instr{}, err
		}
		in.F64 = math.Float64frombits(binary.LittleEndian.Uint64(b))
	}
	return in, nil
}
