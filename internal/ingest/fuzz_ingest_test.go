package ingest

import (
	"encoding/json"
	"testing"

	"repro/internal/cc"
	"repro/internal/leb128"
)

// FuzzIngest drives the tolerant loader and the load-only report path
// with arbitrary bytes. Seeds cover the realistic shapes: clean binaries
// with and without DWARF, unknown-id and custom-section tails, truncated
// and bit-flipped variants. The invariant is total robustness: Binary
// never panics, never fails (it reports), names stay index-aligned with
// functions, and every report marshals to JSON.
func FuzzIngest(f *testing.F) {
	for _, debug := range []bool{false, true} {
		obj, err := cc.Compile(`
int mix(int a, float b) { return a + (int)b; }
long touch(long *p) { if (p != 0) { return *p; } return 0; }
`, cc.Options{FileName: "seed.c", Debug: debug})
		if err != nil {
			f.Fatal(err)
		}
		bin := obj.Binary
		f.Add(bin)
		// Unknown section id appended after the code.
		f.Add(appendRawSection(bin, 63, []byte{0xde, 0xad}))
		// Custom section with a name and payload.
		var meta []byte
		meta = leb128.AppendUint(meta, uint64(len("producer")))
		meta = append(meta, "producer"...)
		meta = append(meta, "fuzz 1.0"...)
		f.Add(appendRawSection(bin, 0, meta))
		// Custom section whose name length overruns the payload.
		f.Add(appendRawSection(bin, 0, []byte{0xff}))
		// Truncated tails at a few depths.
		for _, cut := range []int{1, 7, len(bin) / 2} {
			if cut < len(bin) {
				f.Add(bin[:len(bin)-cut])
			}
		}
		// A bit flip in the middle of the code section.
		flip := append([]byte(nil), bin...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x61, 0x73, 0x6d}) // magic only
	f.Add([]byte{0x00, 0x61, 0x73, 0x6d, 0x01, 0x00, 0x00, 0x00})

	f.Fuzz(func(t *testing.T, data []byte) {
		ing := &Ingester{}
		rep := ing.Binary("fuzz.wasm", data)
		if rep == nil {
			t.Fatal("Binary returned nil report")
		}
		if _, err := json.Marshal(rep); err != nil {
			t.Fatalf("report does not marshal: %v", err)
		}
		if rep.Error != "" {
			return // rejected outright; nothing more to check
		}
		ld, err := Load(data)
		if err != nil {
			t.Fatalf("Binary accepted what Load rejects: %v", err)
		}
		if len(ld.Funcs) != len(ld.Decoded.Module.Funcs) {
			t.Fatalf("%d contexts for %d functions", len(ld.Funcs), len(ld.Decoded.Module.Funcs))
		}
		for i, fn := range ld.Funcs {
			if fn.Index != i || fn.Name == "" || fn.Source == "" {
				t.Fatalf("function %d: misaligned or unresolved context %+v", i, fn)
			}
		}
	})
}
