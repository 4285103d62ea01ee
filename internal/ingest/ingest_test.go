package ingest

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/dwarf"
	"repro/internal/leb128"
	"repro/internal/metrics"
	"repro/internal/seq2seq"
	"repro/internal/typelang"
	"repro/internal/wasm"
)

const testSrc = `
int add(int a, int b) { return a + b; }
double half(double x) { return x / 2.0; }
float *first(float *xs, int n) { if (n > 0) { return xs; } return 0; }
`

func compileTest(t *testing.T, debug bool) *cc.Object {
	t.Helper()
	obj, err := cc.Compile(testSrc, cc.Options{FileName: "ingest.c", Debug: debug})
	if err != nil {
		t.Fatal(err)
	}
	return obj
}

// reencode serializes a (possibly mutated) module back to binary.
func reencode(t *testing.T, m *wasm.Module) []byte {
	t.Helper()
	bin, _, err := wasm.Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	return bin
}

// appendRawSection appends an arbitrary section to an encoded binary.
func appendRawSection(bin []byte, id byte, payload []byte) []byte {
	out := append([]byte(nil), bin...)
	out = append(out, id)
	out = leb128.AppendUint(out, uint64(len(payload)))
	return append(out, payload...)
}

// syntheticTrained builds an untrained model over a plausible label
// vocabulary: prediction equivalence and report mechanics do not depend
// on weights, and untrained models decode deterministically.
func syntheticTrained(ret bool) *core.Trained {
	return syntheticTrainedEncoder(ret, seq2seq.EncoderBiLSTM)
}

func syntheticTrainedEncoder(ret bool, encoder string) *core.Trained {
	srcs := [][]string{
		{"i32", "<begin>", "local.get", "<param>", ";", "i32.add"},
		{"f64", "<begin>", "local.get", "<param>", ";", "f64.mul"},
	}
	tgts := [][]string{
		{"primitive", "int", "32"},
		{"primitive", "float", "64"},
		{"pointer", "primitive", "float", "32"},
		{"name", `"size_t"`, "primitive", "uint", "32"},
	}
	cfg := seq2seq.DefaultConfig()
	cfg.Hidden = 32
	cfg.Embed = 24
	cfg.Encoder = encoder
	m := seq2seq.NewModel(cfg, seq2seq.BuildVocab(srcs, 0), seq2seq.BuildVocab(tgts, 0))
	return &core.Trained{
		Task:  core.Task{Variant: typelang.VariantLSW, Return: ret},
		Model: m,
	}
}

func syntheticPredictor() *core.Predictor {
	return syntheticPredictorEncoder(seq2seq.EncoderBiLSTM)
}

func syntheticPredictorEncoder(encoder string) *core.Predictor {
	return &core.Predictor{
		Param:  syntheticTrainedEncoder(false, encoder),
		Return: syntheticTrainedEncoder(true, encoder),
		Opts:   core.DefaultConfig().Extract,
	}
}

// TestNameResolutionChain pins the provenance fallback chain, one module
// per rung: DWARF, names section, exports, fully stripped. Debug builds
// carry DWARF plus a name section; the lower rungs peel sources off one
// by one.
func TestNameResolutionChain(t *testing.T) {
	debug := compileTest(t, true)

	named := compileTest(t, true) // keep the name section, drop DWARF
	dwarf.Strip(named.Module)
	namedBin := reencode(t, named.Module)

	exported := compileTest(t, false) // exports only
	exportedBin := exported.Binary
	if exported.Module.Custom("name") != nil {
		t.Fatal("non-debug build unexpectedly has a name section")
	}

	stripped := compileTest(t, false)
	stripped.Module.Exports = nil
	strippedBin := reencode(t, stripped.Module)

	nimp := exported.Module.NumImportedFuncs()
	cases := []struct {
		label  string
		bin    []byte
		source NameSource // the report's provenance
		load   NameSource // Load's: it never reads DWARF
		name   string     // expected name of the first defined function
	}{
		{"dwarf", debug.Binary, SourceDWARF, SourceNamesSection, "add"},
		{"names-section", namedBin, SourceNamesSection, SourceNamesSection, "add"},
		{"exports-only", exportedBin, SourceExport, SourceExport, "add"},
		{"fully-stripped", strippedBin, SourceSynthesized, SourceSynthesized, "func[0]"},
	}
	if nimp > 0 {
		cases[3].name = ""
	}
	for _, tc := range cases {
		t.Run(tc.label, func(t *testing.T) {
			ld, err := Load(tc.bin)
			if err != nil {
				t.Fatal(err)
			}
			if len(ld.Funcs) != len(ld.Decoded.Module.Funcs) {
				t.Fatalf("%d contexts for %d functions", len(ld.Funcs), len(ld.Decoded.Module.Funcs))
			}
			if ld.Decoded.Module.Custom(dwarf.SectionInfo) != nil {
				t.Error("Load left DWARF in the module")
			}
			got := ld.Funcs[0]
			if got.Source != tc.load {
				t.Errorf("Load source = %q, want %q", got.Source, tc.load)
			}
			if tc.name != "" && got.Name != tc.name {
				t.Errorf("name = %q, want %q", got.Name, tc.name)
			}
			// The report walks the whole chain, DWARF rung included.
			rep := (&Ingester{}).Binary(tc.label+".wasm", tc.bin)
			if rep.Error != "" {
				t.Fatalf("report error: %s", rep.Error)
			}
			if rep.Funcs[0].NameSource != string(tc.source) {
				t.Errorf("report name_source = %q, want %q", rep.Funcs[0].NameSource, tc.source)
			}
			if tc.name != "" && rep.Funcs[0].Name != tc.name {
				t.Errorf("report name = %q, want %q", rep.Funcs[0].Name, tc.name)
			}
		})
	}
}

// TestIngestUnknownSections: a binary with an unknown section id and a
// nonstandard custom section still yields a full report — predictions per
// element plus the diagnostics describing what was skipped.
func TestIngestUnknownSections(t *testing.T) {
	obj := compileTest(t, false)
	bin := appendRawSection(obj.Binary, 63, []byte{1, 2, 3})
	var meta []byte
	meta = leb128.AppendUint(meta, uint64(len("snowwhite.meta")))
	meta = append(meta, "snowwhite.meta"...)
	meta = append(meta, []byte(`{"v":1}`)...)
	bin = appendRawSection(bin, 0, meta)

	ing := &Ingester{Pred: syntheticPredictor(), K: 3}
	rep := ing.Binary("mixed.wasm", bin)
	if rep.Error != "" {
		t.Fatalf("report error: %s", rep.Error)
	}
	var unknown, custom bool
	for _, s := range rep.Sections {
		if s.Status == string(wasm.SectionUnknown) && s.ID == 63 {
			unknown = true
		}
		if s.Name == "snowwhite.meta" && s.Status == string(wasm.SectionOK) {
			custom = true
		}
	}
	if !unknown || !custom {
		t.Errorf("diagnostics missing (unknown=%v custom=%v): %+v", unknown, custom, rep.Sections)
	}
	if len(rep.Funcs) == 0 {
		t.Fatal("no functions in report")
	}
	for _, fr := range rep.Funcs {
		for _, el := range fr.Elements {
			if len(el.Predictions) == 0 {
				t.Errorf("%s/%s: no predictions", fr.Name, el.Element)
				continue
			}
			sum := 0.0
			for _, p := range el.Predictions {
				sum += p.Confidence
			}
			fallback := len(el.Predictions) == 1 && el.Predictions[0].Text == "unknown"
			if !fallback && (sum < 1-1e-9 || sum > 1+1e-9) {
				t.Errorf("%s/%s: confidences sum to %v", fr.Name, el.Element, sum)
			}
		}
	}
	if _, err := json.Marshal(rep); err != nil {
		t.Fatalf("report does not marshal: %v", err)
	}
}

// TestIngestEval: with embedded DWARF, eval mode labels elements, ranks
// the predictions against them, and emits a summary.
func TestIngestEval(t *testing.T) {
	obj := compileTest(t, true)
	ing := &Ingester{Pred: syntheticPredictor(), Eval: true}
	rep := ing.Binary("debug.wasm", obj.Binary)
	if rep.Error != "" {
		t.Fatalf("report error: %s", rep.Error)
	}
	if rep.Eval == nil || rep.Eval.Labeled == 0 {
		t.Fatalf("eval summary missing or empty: %+v", rep.Eval)
	}
	labeled := 0
	for _, fr := range rep.Funcs {
		for _, el := range fr.Elements {
			if el.Truth != "" {
				labeled++
				if _, err := typelang.ParseString(el.Truth); err != nil {
					t.Errorf("%s/%s: truth %q does not parse: %v", fr.Name, el.Element, el.Truth, err)
				}
				if el.TruthRank < 0 || el.TruthRank > len(el.Predictions) {
					t.Errorf("%s/%s: truth_rank %d out of range", fr.Name, el.Element, el.TruthRank)
				}
			}
		}
	}
	if labeled != rep.Eval.Labeled {
		t.Errorf("%d labeled elements in report, summary says %d", labeled, rep.Eval.Labeled)
	}
	// The DWARF names must have been used for naming before stripping.
	if rep.Funcs[0].NameSource != string(SourceDWARF) {
		t.Errorf("name_source = %q, want dwarf", rep.Funcs[0].NameSource)
	}
}

// TestDirDeterminism: a directory ingested with 1 worker and with 4 must
// produce byte-identical JSON, eval summary included.
func TestDirDeterminism(t *testing.T) {
	dir := t.TempDir()
	debug := compileTest(t, true)
	plain := compileTest(t, false)
	mixed := appendRawSection(plain.Binary, 63, []byte{9, 9})
	for name, data := range map[string][]byte{
		"a/debug.wasm":  debug.Binary,
		"b/plain.wasm":  plain.Binary,
		"c/mixed.wasm":  mixed,
		"d/broken.wasm": {0, 1, 2, 3},
	} {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	ing := &Ingester{Pred: syntheticPredictor(), Eval: true}
	var outs [][]byte
	for _, workers := range []int{1, 4} {
		rep, err := ing.Dir(dir, workers)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(rep, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		outs = append(outs, b)
	}
	if !bytes.Equal(outs[0], outs[1]) {
		t.Error("dir report differs between -j 1 and -j 4")
	}
	var rep DirReport
	if err := json.Unmarshal(outs[0], &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Binaries) != 4 {
		t.Fatalf("%d binaries, want 4", len(rep.Binaries))
	}
	for i := 1; i < len(rep.Binaries); i++ {
		if rep.Binaries[i-1].Binary >= rep.Binaries[i].Binary {
			t.Errorf("binaries not path-sorted: %q >= %q", rep.Binaries[i-1].Binary, rep.Binaries[i].Binary)
		}
	}
	if rep.Binaries[3].Error == "" {
		t.Error("broken binary should carry an error")
	}
	if rep.Eval == nil || rep.Eval.Labeled == 0 {
		t.Error("aggregate eval summary missing")
	}
}

// TestIngesterConcurrent hammers one Ingester, and so one Predictor,
// from many goroutines. Prediction must be read-only over model state
// (run with -race) and beam search deterministic: every goroutine gets
// the report a serial call produces.
func TestIngesterConcurrent(t *testing.T) {
	obj, err := cc.Compile(`
double first(double *xs, int n) {
	if (xs != NULL && n > 0) { return xs[0]; }
	return 0.0;
}
int length(char *s) {
	int n = 0;
	while (s[n] != 0) { n = n + 1; }
	return n;
}
`, cc.Options{FileName: "concurrent.c", Debug: true})
	if err != nil {
		t.Fatal(err)
	}
	ing := &Ingester{Pred: syntheticPredictor(), K: 3, Eval: true}
	want, err := json.Marshal(ing.Binary("concurrent.wasm", obj.Binary))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(want, []byte(`"predictions"`)) {
		t.Fatalf("serial report has no predictions: %s", want)
	}

	const goroutines = 32
	const iters = 4
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				got, err := json.Marshal(ing.Binary("concurrent.wasm", obj.Binary))
				if err != nil {
					t.Error(err)
					return
				}
				if !bytes.Equal(got, want) {
					t.Errorf("goroutine %d: report differs from the serial one", g)
					return
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestIngestMetricsExposition: the ingest counters land on the shared
// registry and render in exposition format.
func TestIngestMetricsExposition(t *testing.T) {
	reg := metrics.NewRegistry()
	im := NewMetrics(reg)
	ing := &Ingester{Metrics: im}

	plain := compileTest(t, false)
	ing.Binary("ok.wasm", plain.Binary)
	ing.Binary("mixed.wasm", appendRawSection(plain.Binary, 63, []byte{1}))
	ing.Binary("broken.wasm", []byte{1, 2, 3})

	if got := im.Binaries.Value(); got != 3 {
		t.Errorf("binaries_total = %d, want 3", got)
	}
	if got := im.OK.Value(); got != 1 {
		t.Errorf("ok_total = %d, want 1", got)
	}
	if got := im.Degraded.Value(); got != 1 {
		t.Errorf("degraded_total = %d, want 1", got)
	}
	if got := im.Rejected.Value(); got != 1 {
		t.Errorf("rejected_total = %d, want 1", got)
	}
	if got := im.SectionDiags[wasm.SectionUnknown].Value(); got != 1 {
		t.Errorf("sections_unknown_total = %d, want 1", got)
	}
	var buf bytes.Buffer
	if _, err := reg.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"snowwhite_ingest_binaries_total 3",
		"snowwhite_ingest_binaries_ok_total 1",
		"snowwhite_ingest_binaries_degraded_total 1",
		"snowwhite_ingest_binaries_rejected_total 1",
		"snowwhite_ingest_sections_unknown_total 1",
		"# TYPE snowwhite_ingest_binary_seconds histogram",
		"snowwhite_ingest_binary_seconds_count 3",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
}
