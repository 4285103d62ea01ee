package seq2seq

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"repro/internal/ad"
)

// TestPredictF32Deterministic: the f32 engine is a second numeric
// contract next to exact f64 — different bits, still a function of its
// inputs. Repeated decodes must agree exactly, the
// precision switch must be observable, and switching back to f64 must
// restore the full-precision predictions bit-for-bit.
func TestPredictF32Deterministic(t *testing.T) {
	m, srcs := benchGroup(8)
	testPredictF32Deterministic(t, m, srcs)
}

// TestPredictF32DeterministicTransformer: the Transformer encoder rides
// the same f32 tapes through the encoder interface (LayerNorm, ReLU,
// AddRowsConst and the attention ops all dispatch), so it owes the same
// contract.
func TestPredictF32DeterministicTransformer(t *testing.T) {
	m, srcs := benchGroupEncoder(8, EncoderTransformer)
	testPredictF32Deterministic(t, m, srcs)
}

func testPredictF32Deterministic(t *testing.T, m *Model, srcs [][]string) {
	ks := make([]int, len(srcs))
	for i := range ks {
		ks[i] = 3
	}
	full := m.PredictMulti(srcs, ks)

	if got := m.Precision(); got != "f64" {
		t.Fatalf("model born with precision %q", got)
	}
	if err := m.SetPrecision("f32"); err != nil {
		t.Fatal(err)
	}
	if got := m.Precision(); got != "f32" {
		t.Fatalf("after SetPrecision(f32): precision %q", got)
	}
	a := m.PredictMulti(srcs, ks)
	bPreds := m.PredictMulti(srcs, ks)
	if !reflect.DeepEqual(a, bPreds) {
		t.Error("f32 predictions differ between identical calls")
	}
	for i, preds := range a {
		if len(preds) == 0 {
			t.Fatalf("f32 search %d returned no beams", i)
		}
	}

	if err := m.SetPrecision("f64"); err != nil {
		t.Fatal(err)
	}
	again := m.PredictMulti(srcs, ks)
	if !reflect.DeepEqual(full, again) {
		t.Error("full-precision predictions changed after an f32 episode")
	}
}

// TestSetPrecisionUnknown: the precision knob rejects anything but the
// two engines it can deliver, leaving the model untouched.
func TestSetPrecisionUnknown(t *testing.T) {
	m, _ := benchGroup(8)
	if err := m.SetPrecision("f16"); err == nil {
		t.Fatal("SetPrecision(f16) accepted")
	}
	if got := m.Precision(); got != "f64" {
		t.Fatalf("failed SetPrecision changed precision to %q", got)
	}
	if err := m.SetPrecision(""); err != nil {
		t.Fatalf("SetPrecision(%q) = %v, want default f64", "", err)
	}
}

// TestSetPrecisionF64NeedsF64Weights: a model whose parameters live only
// in float32 (a quantized load) cannot decode at f64. SetPrecision("f64")
// must refuse instead of leaving Predict to index nil float64 weights,
// and the model must stay on f32 and keep decoding.
func TestSetPrecisionF64NeedsF64Weights(t *testing.T) {
	m, srcs := benchGroup(8)
	if err := m.SetPrecision("f32"); err != nil {
		t.Fatal(err)
	}
	for _, v := range m.params.All() {
		v.W = nil // float32-resident, like core.LoadQuantizedPredictor
	}
	for _, p := range []string{"f64", ""} {
		if err := m.SetPrecision(p); err == nil {
			t.Fatalf("SetPrecision(%q) accepted a float32-resident model", p)
		}
	}
	if got := m.Precision(); got != "f32" {
		t.Fatalf("failed SetPrecision changed precision to %q", got)
	}
	if preds := m.PredictBatch(srcs, 3); len(preds) != len(srcs) || len(preds[0]) == 0 {
		t.Fatal("f32-resident model stopped decoding after a refused SetPrecision")
	}
}

// TestPredictF32TracksF64 is the in-package accuracy smoke test (the CLI
// acctest gate measures the real thing on trained fixtures): on a toy
// trained model the f32 engine's top-1 predictions should agree with
// f64 on a clear majority of searches — single precision shifts
// near-tied beams, not confident ones.
func TestPredictF32TracksF64(t *testing.T) {
	m, srcs := predictTestModel(t, 3)
	f64Preds := m.PredictBatch(srcs, 1)
	if err := m.SetPrecision("f32"); err != nil {
		t.Fatal(err)
	}
	f32Preds := m.PredictBatch(srcs, 1)
	agree := 0
	for i := range srcs {
		if reflect.DeepEqual(f64Preds[i][0].Tokens, f32Preds[i][0].Tokens) {
			agree++
		}
	}
	if agree*2 < len(srcs) {
		t.Errorf("f32 top-1 agrees with f64 on %d/%d searches", agree, len(srcs))
	}
}

// TestPredictF32WorkingSetHalved pins the headline memory claim: the
// f32 decode's peak pooled buffer is exactly half the f64 one in bytes
// — same element count (the shared encoder operand cache both engines
// peak on), four bytes per element instead of eight.
func TestPredictF32WorkingSetHalved(t *testing.T) {
	m, srcs := predictTestModel(t, 1)
	ks := make([]int, len(srcs))
	for i := range ks {
		ks[i] = 5
	}

	peak := func(mk func(*ad.Pool) *ad.Tape) (elems, bytes int) {
		pool := ad.NewPool()
		if _, err := m.predictMultiOn(mk(pool), srcs, ks, nil); err != nil {
			t.Fatal(err)
		}
		return pool.MaxBufferElems(), pool.MaxBufferBytes()
	}

	if err := m.SetPrecision("f32"); err != nil {
		t.Fatal(err)
	}
	e64, b64 := peak(ad.NewForward)
	e32, b32 := peak(ad.NewForwardF32)
	if e32 != e64 {
		t.Errorf("peak buffer elems: f32 %d, f64 %d — engines peak on different buffers", e32, e64)
	}
	if 2*b32 != b64 {
		t.Errorf("peak buffer bytes: f32 %d, f64 %d — want exactly half", b32, b64)
	}
}

// TestPredictF32AllocsSteadyState: the f32 engine recycles through the
// pool's float32 free list exactly like the f64 engines recycle through
// theirs — steady-state decoding must allocate a small fraction of what
// the recording-tape reference does.
func TestPredictF32AllocsSteadyState(t *testing.T) {
	m, srcs := predictTestModel(t, 1)
	src := srcs[0]
	if err := m.SetPrecision("f32"); err != nil {
		t.Fatal(err)
	}
	m.Predict(src, 5) // warm the buffer pool
	pooled := testing.AllocsPerRun(20, func() { m.Predict(src, 5) })
	if err := m.SetPrecision("f64"); err != nil {
		t.Fatal(err)
	}
	reference := testing.AllocsPerRun(20, func() { referencePredict(m, src, 5) })
	if pooled > reference/2 {
		t.Errorf("pooled f32 Predict allocates %.0f objects/run, reference %.0f — f32 pooling is not engaging", pooled, reference)
	}
}

// TestTrainingPrecisionIsolated is the model-level training guard: a
// model carrying SetPrecision("f32") must train bit-identically to its
// default-precision twin, because recording tapes never dispatch to the
// f32 kernels (ad.TestF32Dispatch pins the tape level; this pins the
// Fit entry point end to end, validation loss included).
func TestTrainingPrecisionIsolated(t *testing.T) {
	r := rand.New(rand.NewSource(23))
	train := makeToyData(r, 60)
	valid := makeToyData(r, 12)
	cfg := testConfig()
	cfg.Epochs = 1

	build := func() *Model {
		var srcs, tgts [][]string
		for _, p := range train {
			srcs = append(srcs, p.Src)
			tgts = append(tgts, p.Tgt)
		}
		return NewModel(cfg, BuildVocab(srcs, cfg.SrcVocab), BuildVocab(tgts, cfg.TgtVocab))
	}

	base := build()
	base.Fit(train, valid, nil)

	f32m := build()
	if err := f32m.SetPrecision("f32"); err != nil {
		t.Fatal(err)
	}
	f32m.Fit(train, valid, nil)

	want, got := base.snapshot(), f32m.snapshot()
	if len(want) != len(got) {
		t.Fatalf("parameter count differs: %d vs %d", len(got), len(want))
	}
	for i := range want {
		if !reflect.DeepEqual(want[i], got[i]) {
			t.Fatalf("parameter %d trained differently under an f32 precision flag", i)
		}
	}
}

// BenchmarkPredictF32 measures the single-precision engine against the
// exact f64 decoder on identical batched beam searches, both rerun in
// one process so the ratio comes from one machine state.
func BenchmarkPredictF32(b *testing.B) {
	for _, mode := range []struct{ name, precision string }{{"full", "f64"}, {"f32", "f32"}} {
		for _, maxLen := range []int{8, 16} {
			b.Run(fmt.Sprintf("%s/maxLen=%d", mode.name, maxLen), func(b *testing.B) {
				m, srcs := benchGroup(maxLen)
				if err := m.SetPrecision(mode.precision); err != nil {
					b.Fatal(err)
				}
				ks := make([]int, len(srcs))
				for i := range ks {
					ks[i] = 5
				}
				m.PredictMulti(srcs, ks)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					m.PredictMulti(srcs, ks)
				}
				b.StopTimer()
				perSearch := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(srcs))
				b.ReportMetric(perSearch, "ns/search")
			})
		}
	}
}

// BenchmarkPredictTransformer measures batched beam decoding behind the
// Transformer encoder, full-precision and f32, on the same ragged
// sources as BenchmarkPredict — the decode half of the
// BiLSTM-vs-Transformer throughput comparison in EXPERIMENTS.md.
func BenchmarkPredictTransformer(b *testing.B) {
	for _, mode := range []struct{ name, precision string }{{"full", "f64"}, {"f32", "f32"}} {
		b.Run(fmt.Sprintf("%s/maxLen=16", mode.name), func(b *testing.B) {
			m, srcs := benchGroupEncoder(16, EncoderTransformer)
			if err := m.SetPrecision(mode.precision); err != nil {
				b.Fatal(err)
			}
			m.PredictBatch(srcs, 5)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.PredictBatch(srcs, 5)
			}
			b.StopTimer()
			perSearch := float64(b.Elapsed().Nanoseconds()) / float64(b.N*len(srcs))
			b.ReportMetric(perSearch, "ns/search")
		})
	}
}
