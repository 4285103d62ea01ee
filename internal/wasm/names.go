package wasm

import (
	"fmt"

	"repro/internal/leb128"
)

// NameSection is the standard "name" custom section's content: an optional
// module name and per-function debug names (indexed over the full function
// index space, imports included).
type NameSection struct {
	Module string
	Funcs  map[uint32]string
}

// nameSubsection IDs per the WebAssembly spec appendix.
const (
	nameSubModule = 0
	nameSubFuncs  = 1
)

// EncodeNameSection serializes a "name" custom section payload.
func EncodeNameSection(ns *NameSection) []byte {
	var out []byte
	sub := func(id byte, body []byte) {
		out = append(out, id)
		out = leb128.AppendUint(out, uint64(len(body)))
		out = append(out, body...)
	}
	if ns.Module != "" {
		var b []byte
		b = leb128.AppendUint(b, uint64(len(ns.Module)))
		b = append(b, ns.Module...)
		sub(nameSubModule, b)
	}
	if len(ns.Funcs) > 0 {
		// The name map must be sorted by index.
		idxs := make([]uint32, 0, len(ns.Funcs))
		for i := range ns.Funcs {
			idxs = append(idxs, i)
		}
		for i := 1; i < len(idxs); i++ {
			for j := i; j > 0 && idxs[j] < idxs[j-1]; j-- {
				idxs[j], idxs[j-1] = idxs[j-1], idxs[j]
			}
		}
		var b []byte
		b = leb128.AppendUint(b, uint64(len(idxs)))
		for _, i := range idxs {
			b = leb128.AppendUint(b, uint64(i))
			name := ns.Funcs[i]
			b = leb128.AppendUint(b, uint64(len(name)))
			b = append(b, name...)
		}
		sub(nameSubFuncs, b)
	}
	return out
}

// DecodeNameSection parses a "name" custom section payload. Unknown
// subsections are skipped, as the spec requires.
func DecodeNameSection(data []byte) (*NameSection, error) {
	ns := &NameSection{Funcs: map[uint32]string{}}
	pos := 0
	u := func() (uint64, error) {
		v, n, err := leb128.Uint(data[pos:], 32)
		pos += n
		return v, err
	}
	str := func() (string, error) {
		n, err := u()
		if err != nil {
			return "", err
		}
		if pos+int(n) > len(data) {
			return "", fmt.Errorf("wasm: truncated name")
		}
		s := string(data[pos : pos+int(n)])
		pos += int(n)
		return s, nil
	}
	for pos < len(data) {
		id := data[pos]
		pos++
		size, err := u()
		if err != nil {
			return nil, err
		}
		end := pos + int(size)
		if end > len(data) {
			return nil, fmt.Errorf("wasm: name subsection %d overflows", id)
		}
		switch id {
		case nameSubModule:
			if ns.Module, err = str(); err != nil {
				return nil, err
			}
		case nameSubFuncs:
			cnt, err := u()
			if err != nil {
				return nil, err
			}
			for i := uint64(0); i < cnt; i++ {
				idx, err := u()
				if err != nil {
					return nil, err
				}
				name, err := str()
				if err != nil {
					return nil, err
				}
				ns.Funcs[uint32(idx)] = name
			}
		}
		pos = end
	}
	return ns, nil
}

// AttachNames embeds (or replaces) the "name" custom section built from
// the module's function names, as toolchains emit for debugging.
func AttachNames(m *Module, moduleName string) {
	ns := &NameSection{Module: moduleName, Funcs: map[uint32]string{}}
	nimp := uint32(m.NumImportedFuncs())
	fi := uint32(0)
	for _, imp := range m.Imports {
		if imp.Kind == KindFunc {
			ns.Funcs[fi] = imp.Name
			fi++
		}
	}
	for i := range m.Funcs {
		if m.Funcs[i].Name != "" {
			ns.Funcs[nimp+uint32(i)] = m.Funcs[i].Name
		}
	}
	data := EncodeNameSection(ns)
	if c := m.Custom("name"); c != nil {
		c.Bytes = data
		return
	}
	m.Customs = append(m.Customs, Custom{Name: "name", Bytes: data})
}
