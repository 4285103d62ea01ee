package wasm

import (
	"reflect"
	"testing"
)

func TestNameSectionRoundTrip(t *testing.T) {
	ns := &NameSection{
		Module: "libexample",
		Funcs:  map[uint32]string{0: "printf", 1: "amd_control", 5: "helper"},
	}
	data := EncodeNameSection(ns)
	got, err := DecodeNameSection(data)
	if err != nil {
		t.Fatal(err)
	}
	if got.Module != ns.Module || !reflect.DeepEqual(got.Funcs, ns.Funcs) {
		t.Errorf("round trip = %+v, want %+v", got, ns)
	}
}

func TestNameSectionEmpty(t *testing.T) {
	got, err := DecodeNameSection(nil)
	if err != nil || got.Module != "" || len(got.Funcs) != 0 {
		t.Errorf("empty decode = %+v, %v", got, err)
	}
	if data := EncodeNameSection(&NameSection{}); len(data) != 0 {
		t.Errorf("empty encode = %x", data)
	}
}

func TestNameSectionUnknownSubsectionSkipped(t *testing.T) {
	// Subsection id 7 (locals-ish), then a valid module name.
	data := []byte{7, 2, 0xaa, 0xbb}
	data = append(data, EncodeNameSection(&NameSection{Module: "m"})...)
	got, err := DecodeNameSection(data)
	if err != nil || got.Module != "m" {
		t.Errorf("skip unknown: %+v, %v", got, err)
	}
}

func TestNameSectionTruncated(t *testing.T) {
	ns := &NameSection{Funcs: map[uint32]string{0: "very_long_function_name"}}
	data := EncodeNameSection(ns)
	if _, err := DecodeNameSection(data[:len(data)-4]); err == nil {
		t.Error("truncated section accepted")
	}
}

// TestAttachApplyNames checks that AttachNames replaces rather than
// duplicates the name section and that the names survive a round trip
// through the binary. The decoder leaves Function.Name empty; names are
// read back from the section itself.
func TestAttachApplyNames(t *testing.T) {
	m := testModule()
	m.Funcs[0].Name = "first"
	m.Funcs[1].Name = "second"
	AttachNames(m, "mod")
	if m.Custom("name") == nil {
		t.Fatal("no name section attached")
	}
	// Re-attach replaces rather than duplicates.
	AttachNames(m, "mod")
	count := 0
	for _, c := range m.Customs {
		if c.Name == "name" {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("%d name sections", count)
	}
	// Round trip through the binary and recover names.
	bin, _, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	d, err := Decode(bin)
	if err != nil {
		t.Fatal(err)
	}
	if d.Module.Funcs[0].Name != "" {
		t.Fatal("decoder should not apply names implicitly")
	}
	c := d.Module.Custom("name")
	if c == nil {
		t.Fatal("name section lost in the round trip")
	}
	ns, err := DecodeNameSection(c.Bytes)
	if err != nil {
		t.Fatal(err)
	}
	nimp := uint32(d.Module.NumImportedFuncs())
	want := map[uint32]string{0: "ext", nimp: "first", nimp + 1: "second"}
	if ns.Module != "mod" || !reflect.DeepEqual(ns.Funcs, want) {
		t.Errorf("name section = %q %v, want %q %v", ns.Module, ns.Funcs, "mod", want)
	}
}
