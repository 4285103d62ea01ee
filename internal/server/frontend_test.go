package server

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"slices"
	"testing"

	"repro/internal/cc"
	"repro/internal/ingest"
	"repro/internal/leb128"
	"repro/internal/wasm"
)

// frontendSrc is the program behind the test predictor's binary.
const frontendSrc = `
double first(double *xs, int n) {
	if (xs != NULL && n > 0) { return xs[0]; }
	return 0.0;
}
int length(char *s) {
	int n = 0;
	while (s[n] != 0) { n = n + 1; }
	return n;
}
`

func compileFrontend(t testing.TB, debug bool) *cc.Object {
	t.Helper()
	obj, err := cc.Compile(frontendSrc, cc.Options{FileName: "frontend.c", Debug: debug})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// TestPredictDegradedBinary: a binary that `snowwhite ingest` reports on
// (an unknown section id 63 plus a custom section) is served too, with
// the functions and elements of the ingest report and the unknown
// section listed in the response's sections.
func TestPredictDegradedBinary(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	bin, err := os.ReadFile("../ingest/testdata/mixed_custom.wasm")
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postWasm(t, ts.URL, bin, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, body)
	}
	pr := decodeResponse(t, body)
	rep := (&ingest.Ingester{}).Binary("mixed_custom.wasm", bin)
	if len(pr.Functions) != len(rep.Funcs) {
		t.Fatalf("%d functions served, ingest reports %d", len(pr.Functions), len(rep.Funcs))
	}
	for i, fn := range pr.Functions {
		fr := rep.Funcs[i]
		if fn.Index != i || fn.Name != fr.Name || fn.NameSource != fr.NameSource {
			t.Errorf("function %d: served %d %q (%s), ingest %q (%s)", i, fn.Index, fn.Name, fn.NameSource, fr.Name, fr.NameSource)
		}
		var served, reported []string
		for name := range fn.Elements {
			served = append(served, name)
		}
		for _, el := range fr.Elements {
			reported = append(reported, el.Element)
		}
		slices.Sort(served)
		slices.Sort(reported)
		if len(served) == 0 || !slices.Equal(served, reported) {
			t.Errorf("function %d: served elements %v, ingest %v", i, served, reported)
		}
	}
	found := false
	for _, sr := range pr.Sections {
		if sr.Status == "ok" {
			t.Errorf("sections lists an ok section: %+v", sr)
		}
		found = found || (sr.ID == 63 && sr.Status == string(wasm.SectionUnknown))
	}
	if !found {
		t.Errorf("sections %+v lack the unknown section 63", pr.Sections)
	}

	// A clean binary omits sections altogether.
	_, clean := testPredictor(t)
	_, body = postWasm(t, ts.URL, clean, "func=first")
	if pr := decodeResponse(t, body); pr.Sections != nil {
		t.Errorf("clean binary reported sections %+v", pr.Sections)
	}
}

// TestPredictNamesSectionOnly: a debug build whose exports were removed
// still resolves func=first, through its name section.
func TestPredictNamesSectionOnly(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	obj := compileFrontend(t, true)
	obj.Module.Exports = nil
	bin, _, err := wasm.Encode(obj.Module)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postWasm(t, ts.URL, bin, "func=first")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, body)
	}
	pr := decodeResponse(t, body)
	if len(pr.Functions) != 1 {
		t.Fatalf("functions = %+v, want one", pr.Functions)
	}
	fn := pr.Functions[0]
	if fn.Index != 0 || fn.Name != "first" || fn.NameSource != string(ingest.SourceNamesSection) {
		t.Errorf("function = %d %q (%s), want 0 first (names_section)", fn.Index, fn.Name, fn.NameSource)
	}
	if len(fn.Elements) != 3 {
		t.Errorf("elements = %v, want param0, param1, return", fn.Elements)
	}
}

// TestPredictOutOfRangeTypeIndex: one function whose type index the
// module does not define is listed without elements; the rest of the
// request is still predicted.
func TestPredictOutOfRangeTypeIndex(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	obj := compileFrontend(t, false)
	obj.Module.Funcs[0].TypeIdx = uint32(len(obj.Module.Types) + 5)
	bin, _, err := wasm.Encode(obj.Module)
	if err != nil {
		t.Fatal(err)
	}
	resp, body := postWasm(t, ts.URL, bin, "")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, want 200; body %s", resp.StatusCode, body)
	}
	pr := decodeResponse(t, body)
	if len(pr.Functions) != 2 {
		t.Fatalf("functions = %+v, want both", pr.Functions)
	}
	if bad := pr.Functions[0]; bad.Name != "first" || len(bad.Elements) != 0 {
		t.Errorf("out-of-range function = %q with elements %v, want first with none", bad.Name, bad.Elements)
	}
	good := pr.Functions[1]
	if good.Name != "length" || len(good.Elements["param0"]) == 0 || len(good.Elements["return"]) == 0 {
		t.Errorf("in-range function = %q with elements %v, want length predicted", good.Name, good.Elements)
	}
}

// FuzzPredict drives the predict handler with arbitrary bodies and no
// function selector. Whatever ingest.Load accepts the server answers:
// the status is 200 or 400 (never 422 or 5xx), and a 200 lists one entry
// per defined function. Seeds follow FuzzIngest's shapes.
func FuzzPredict(f *testing.F) {
	for _, debug := range []bool{false, true} {
		bin := compileFrontend(f, debug).Binary
		f.Add(bin)
		// Unknown section id appended after the code.
		f.Add(appendSection(bin, 63, []byte{0xde, 0xad}))
		// Custom section whose name length overruns the payload.
		f.Add(appendSection(bin, 0, []byte{0xff}))
		// Truncated tails at a few depths.
		for _, cut := range []int{1, 7, len(bin) / 2} {
			f.Add(bin[:len(bin)-cut])
		}
		// A bit flip in the middle of the code section.
		flip := append([]byte(nil), bin...)
		flip[len(flip)/2] ^= 0x40
		f.Add(flip)
	}
	f.Add([]byte{})
	f.Add([]byte{0x00, 0x61, 0x73, 0x6d}) // magic only

	pred, _ := testPredictor(f)
	s, err := New(pred, Config{})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })
	h := s.Handler()

	f.Fuzz(func(t *testing.T, data []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/predict", bytes.NewReader(data)))
		switch rec.Code {
		case http.StatusBadRequest:
			return
		case http.StatusOK:
		default:
			t.Fatalf("status %d for a %d-byte body: %s", rec.Code, len(data), rec.Body.Bytes())
		}
		ld, err := ingest.Load(data)
		if err != nil {
			t.Fatalf("200 for a body ingest.Load rejects: %v", err)
		}
		pr := decodeResponse(t, rec.Body.Bytes())
		if len(pr.Functions) != len(ld.Funcs) {
			t.Fatalf("%d functions served, %d defined", len(pr.Functions), len(ld.Funcs))
		}
	})
}

// appendSection appends an arbitrary section to an encoded binary.
func appendSection(bin []byte, id byte, payload []byte) []byte {
	out := append([]byte(nil), bin...)
	out = append(out, id)
	out = leb128.AppendUint(out, uint64(len(payload)))
	return append(out, payload...)
}
