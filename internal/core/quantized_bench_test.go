package core

import (
	"path/filepath"
	"testing"

	"repro/internal/quant"
	"repro/internal/typelang"
)

// weightBytes sums the resident parameter storage of a predictor's task
// models: 8 bytes per float64 weight and gradient, 4 per float32. The
// f32 quantized load drops W and G, so its figure pins the resident
// memory the direct-to-f32 path buys back.
func weightBytes(p *Predictor) int64 {
	var n int64
	for _, tr := range []*Trained{p.Param, p.Return} {
		if tr == nil {
			continue
		}
		for _, v := range tr.Model.Params() {
			n += int64(8*(len(v.W)+len(v.G)) + 4*len(v.W32))
		}
	}
	return n
}

// BenchmarkQuantizedLoad measures loading an int8-quantized predictor,
// which dequantizes straight into float32 storage on the f32 engine.
// The weight-bytes metric records the resident parameter memory (a
// quarter of the full-precision model's; see
// TestQuantizedF32ResidentMemoryHalved).
func BenchmarkQuantizedLoad(b *testing.B) {
	d, err := BuildDataset(testConfig(), nil)
	if err != nil {
		b.Fatal(err)
	}
	tr, err := d.TrainTask(Task{Variant: typelang.VariantLSW}, nil, nil)
	if err != nil {
		b.Fatal(err)
	}
	p := &Predictor{Param: tr, Opts: d.Cfg.Extract}
	path := filepath.Join(b.TempDir(), "model.qbin")
	if err := ExportQuantized(p, path, quant.Int8); err != nil {
		b.Fatal(err)
	}
	b.Run("precision=f32", func(b *testing.B) {
		var bytes int64
		for i := 0; i < b.N; i++ {
			q, err := LoadQuantizedPredictor(path)
			if err != nil {
				b.Fatal(err)
			}
			bytes = weightBytes(q)
		}
		b.ReportMetric(float64(bytes), "weight-bytes")
	})
}

// TestQuantizedF32ResidentMemoryHalved pins the memory claim exactly.
// The quantized load halves the weights themselves (float32 vs float64)
// and additionally drops the gradient buffers a full-precision model
// carries (ad.New allocates W and G together), so its resident
// parameter storage is exactly a quarter of the full-precision model's:
// 4 bytes per element against 16.
func TestQuantizedF32ResidentMemoryHalved(t *testing.T) {
	d := buildTestDataset(t)
	_, tr := d.RunTask(Task{Variant: typelang.VariantLSW}, nil)
	p := &Predictor{Param: tr, Opts: d.Cfg.Extract}
	path := filepath.Join(t.TempDir(), "model.qbin")
	if err := ExportQuantized(p, path, quant.Int8); err != nil {
		t.Fatal(err)
	}
	q32, err := LoadQuantizedPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	b64, b32 := weightBytes(p), weightBytes(q32)
	if b64 == 0 || b32 == 0 {
		t.Fatalf("empty weight storage: f64=%d f32=%d", b64, b32)
	}
	if 4*b32 != b64 {
		t.Errorf("f32 resident weight bytes = %d, want exactly a quarter of f64's %d", b32, b64)
	}
}
