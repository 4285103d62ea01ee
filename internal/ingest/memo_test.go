package ingest

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/cc"
	"repro/internal/metrics"
	"repro/internal/seq2seq"
)

// memoCorpus writes a directory with repeats of every kind Dir's memo
// meets: the checked-in testdata binaries twice under different names,
// and compiled binaries that share one function body among different
// neighbours, so the shared body's hit comes from a different decode
// batch than its first decode. It returns the directory and each
// binary's bytes by report name.
func memoCorpus(t *testing.T) (string, map[string][]byte) {
	t.Helper()
	dir := t.TempDir()
	files := map[string][]byte{}
	paths, err := filepath.Glob(filepath.Join("testdata", "*.wasm"))
	if err != nil || len(paths) == 0 {
		t.Fatalf("no testdata binaries (%v)", err)
	}
	for _, p := range paths {
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, copyDir := range []string{"a", "b"} {
			files[copyDir+"/"+filepath.Base(p)] = data
		}
	}
	const shared = `
int scale(int x, int y) { return x * y + 7; }
`
	for i, neighbours := range []string{
		`double mid(double a, double b) { return (a + b) / 2.0; }`,
		`float *pick(float *xs, int n) { if (n > 2) { return xs + 2; } return xs; }
int count(char *s) { int n = 0; while (s[n] != 0) { n = n + 1; } return n; }`,
		`long widen(int v, long w) { return w + v; }`,
	} {
		obj, err := cc.Compile(shared+neighbours, cc.Options{FileName: fmt.Sprintf("lib%d.c", i), Debug: i != 1})
		if err != nil {
			t.Fatal(err)
		}
		files[fmt.Sprintf("c/lib%d.wasm", i)] = obj.Binary
	}
	for name, data := range files {
		path := filepath.Join(dir, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dir, files
}

// repeatedQueries counts the queries of a directory run whose (role, k,
// input) an earlier query already had: every query minus the distinct
// ones, computed from the inputs directly rather than through the memo.
func repeatedQueries(t *testing.T, ing *Ingester, files map[string][]byte) int64 {
	t.Helper()
	seen := map[string]bool{}
	total := 0
	for _, data := range files {
		ld, err := Load(data)
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range ld.Funcs {
			for _, el := range f.Elements {
				if ing.Pred.ModelFor(el) == nil {
					continue
				}
				total++
				seen[fmt.Sprintf("%v|%d|%q", el.IsReturn(), ing.k(), ing.Pred.Input(ld.Decoded.Module, f.Index, el))] = true
			}
		}
	}
	return int64(total - len(seen))
}

// TestDirMemoMatchesBinary: with the run's prediction memo answering
// repeats — exact copies, and a shared function decoded among other
// neighbours — every binary's report from Dir must be byte-identical to
// Binary's on that file, on the exact f64 and the f32 engine, at 1 and
// 4 workers, behind both encoders. The reuse counter must count every
// repeated query on one worker; with concurrent workers two may decode
// the same input at once, so it can only be lower.
func TestDirMemoMatchesBinary(t *testing.T) {
	dir, files := memoCorpus(t)
	for _, c := range []struct{ enc, prec string }{
		{seq2seq.EncoderBiLSTM, "f64"}, {seq2seq.EncoderBiLSTM, "f32"},
		{seq2seq.EncoderTransformer, "f64"}, {seq2seq.EncoderTransformer, "f32"},
	} {
		name := seq2seq.EncoderName(c.enc) + " " + c.prec
		pred := syntheticPredictorEncoder(c.enc)
		if err := pred.Param.Model.SetPrecision(c.prec); err != nil {
			t.Fatal(err)
		}
		if err := pred.Return.Model.SetPrecision(c.prec); err != nil {
			t.Fatal(err)
		}
		want := map[string][]byte{}
		plain := &Ingester{Pred: pred, K: 3, Eval: true}
		for name, data := range files {
			b, err := json.Marshal(plain.Binary(name, data))
			if err != nil {
				t.Fatal(err)
			}
			want[name] = b
		}
		repeats := repeatedQueries(t, plain, files)
		if repeats < int64(len(files)/2) {
			t.Fatalf("corpus has only %d repeated queries", repeats)
		}
		for _, workers := range []int{1, 4} {
			im := NewMetrics(metrics.NewRegistry())
			ing := &Ingester{Pred: pred, K: 3, Eval: true, Metrics: im}
			rep, err := ing.Dir(dir, workers)
			if err != nil {
				t.Fatal(err)
			}
			if len(rep.Binaries) != len(files) {
				t.Fatalf("%s j%d: %d reports for %d binaries", name, workers, len(rep.Binaries), len(files))
			}
			for _, br := range rep.Binaries {
				got, err := json.Marshal(br)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want[br.Binary]) {
					t.Errorf("%s j%d: %s from Dir differs from Binary\ndir    %s\nbinary %s", name, workers, br.Binary, got, want[br.Binary])
				}
			}
			reused := im.Reused.Value()
			if workers == 1 && reused != repeats {
				t.Errorf("%s j1: reused counter %d, want the %d repeated queries", name, reused, repeats)
			}
			if reused > repeats || reused == 0 {
				t.Errorf("%s j%d: reused counter %d, want 1..%d", name, workers, reused, repeats)
			}
		}
	}
}
