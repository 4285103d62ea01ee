package core

import (
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/quant"
	"repro/internal/typelang"
)

// TestQuantizedExportLoadRoundTrip: exporting a predictor in each
// quantization mode and loading it back yields a working f32-engine
// predictor, and the on-disk round trip agrees exactly with the
// in-memory QuantizePredictor (both decode the same dequantized
// weights, and f32 inference is deterministic).
func TestQuantizedExportLoadRoundTrip(t *testing.T) {
	d := buildTestDataset(t)
	_, param := d.RunTask(Task{Variant: typelang.VariantLSW}, nil)
	_, ret := d.RunTask(Task{Variant: typelang.VariantLSW, Return: true}, nil)
	p := &Predictor{Param: param, Return: ret, Opts: d.Cfg.Extract}
	src := []string{"i32", "<begin>", "local.get", "<param>", ";", "f64.load", "offset=8"}

	for _, mode := range []quant.Mode{quant.F32, quant.Int8} {
		path := filepath.Join(t.TempDir(), "model.qbin")
		if err := ExportQuantized(p, path, mode); err != nil {
			t.Fatalf("ExportQuantized(%s): %v", mode, err)
		}
		got, err := LoadQuantizedPredictor(path)
		if err != nil {
			t.Fatalf("LoadQuantizedPredictor(%s): %v", mode, err)
		}
		if got.Param == nil || got.Return == nil {
			t.Fatal("loaded quantized predictor missing models")
		}
		if got.Param.Model.Precision() != "f32" || got.Return.Model.Precision() != "f32" {
			t.Errorf("%s: quantized load did not select the f32 engine", mode)
		}
		if got.Param.Task != p.Param.Task || got.Return.Task != p.Return.Task {
			t.Errorf("%s: task metadata lost in round trip", mode)
		}
		if (got.Param.BPE == nil) != (p.Param.BPE == nil) {
			t.Errorf("%s: BPE presence differs after round trip", mode)
		}

		mem, err := QuantizePredictor(p, mode)
		if err != nil {
			t.Fatalf("QuantizePredictor(%s): %v", mode, err)
		}
		a := got.Param.Predict(src, 5)
		b := mem.Param.Predict(src, 5)
		if len(a) == 0 {
			t.Fatalf("%s: quantized predictor returned no predictions", mode)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: disk and in-memory quantization disagree:\n%v\n%v", mode, a, b)
		}
	}
}

// TestLoadPredictorAuto routes both on-disk formats to the right loader.
func TestLoadPredictorAuto(t *testing.T) {
	d := buildTestDataset(t)
	_, param := d.RunTask(Task{Variant: typelang.VariantLSW}, nil)
	p := &Predictor{Param: param, Opts: d.Cfg.Extract}
	dir := t.TempDir()

	full := filepath.Join(dir, "full.bin")
	if err := SavePredictor(p, full); err != nil {
		t.Fatal(err)
	}
	quantized := filepath.Join(dir, "quant.bin")
	if err := ExportQuantized(p, quantized, quant.Int8); err != nil {
		t.Fatal(err)
	}

	gotFull, err := LoadPredictorAuto(full)
	if err != nil {
		t.Fatalf("auto-load full-precision: %v", err)
	}
	if pr := gotFull.Param.Model.Precision(); pr != "f64" {
		t.Errorf("full-precision auto-load runs at %q, want f64", pr)
	}
	gotQuant, err := LoadPredictorAuto(quantized)
	if err != nil {
		t.Fatalf("auto-load quantized: %v", err)
	}
	if pr := gotQuant.Param.Model.Precision(); pr != "f32" {
		t.Errorf("quantized auto-load runs at %q, want f32", pr)
	}

	// The quantized loader must refuse the full-precision format.
	if _, err := LoadQuantizedPredictor(full); err == nil {
		t.Error("LoadQuantizedPredictor accepted a full-precision file")
	}
	if _, err := LoadQuantizedPredictor(filepath.Join(dir, "missing.bin")); err == nil {
		t.Error("LoadQuantizedPredictor accepted a missing file")
	}
}

// TestQuantizedF32Load: quantized loads dequantize straight into float32
// parameter storage — the float64 weight and gradient buffers are
// dropped, the models are pinned to the f32 engine and cannot be
// switched back to f64, and predictions are deterministic.
func TestQuantizedF32Load(t *testing.T) {
	d := buildTestDataset(t)
	_, param := d.RunTask(Task{Variant: typelang.VariantLSW}, nil)
	_, ret := d.RunTask(Task{Variant: typelang.VariantLSW, Return: true}, nil)
	p := &Predictor{Param: param, Return: ret, Opts: d.Cfg.Extract}
	src := []string{"i32", "<begin>", "local.get", "<param>", ";", "f64.load", "offset=8"}

	for _, mode := range []quant.Mode{quant.F32, quant.Int8} {
		path := filepath.Join(t.TempDir(), "model.qbin")
		if err := ExportQuantized(p, path, mode); err != nil {
			t.Fatalf("ExportQuantized(%s): %v", mode, err)
		}
		got, err := LoadQuantizedPredictor(path)
		if err != nil {
			t.Fatalf("LoadQuantizedPredictor(%s): %v", mode, err)
		}
		for _, tr := range []*Trained{got.Param, got.Return} {
			if pr := tr.Model.Precision(); pr != "f32" {
				t.Fatalf("%s: model precision = %q, want f32", mode, pr)
			}
			for i, v := range tr.Model.Params() {
				if v.W != nil || v.G != nil {
					t.Fatalf("%s: tensor %d kept float64 storage after f32 load", mode, i)
				}
				if len(v.W32) != v.R*v.C {
					t.Fatalf("%s: tensor %d W32 has %d elems, want %d", mode, i, len(v.W32), v.R*v.C)
				}
			}
		}

		a := got.Param.Predict(src, 5)
		if len(a) == 0 {
			t.Fatalf("%s: f32 quantized predictor returned no predictions", mode)
		}
		if b := got.Param.Predict(src, 5); !reflect.DeepEqual(a, b) {
			t.Errorf("%s: f32 predictions not deterministic:\n%v\n%v", mode, a, b)
		}
		// There are no float64 weights to fall back to.
		if err := got.Param.Model.SetPrecision("f64"); err == nil {
			t.Errorf("%s: SetPrecision(f64) accepted a float32-resident model", mode)
		}
	}
}

// TestQuantizedPredictorWeightsVisible: a float32-resident predictor's
// weights still reach everything that reads a model's weights. Its
// fingerprint (the server's cache namespace) changes with them, Save
// writes them, and it can be quantized again.
func TestQuantizedPredictorWeightsVisible(t *testing.T) {
	d := buildTestDataset(t)
	_, param := d.RunTask(Task{Variant: typelang.VariantLSW}, nil)
	p := &Predictor{Param: param, Opts: d.Cfg.Extract}
	src := []string{"i32", "<begin>", "local.get", "<param>", ";", "f64.load", "offset=8"}
	path := filepath.Join(t.TempDir(), "model.qbin")
	if err := ExportQuantized(p, path, quant.Int8); err != nil {
		t.Fatal(err)
	}
	load := func() (*Predictor, [32]byte) {
		t.Helper()
		q, err := LoadQuantizedPredictor(path)
		if err != nil {
			t.Fatal(err)
		}
		fp, err := FingerprintPredictor(q)
		if err != nil {
			t.Fatal(err)
		}
		return q, fp
	}

	q, fp := load()
	same, fpSame := load()
	if fp != fpSame {
		t.Error("two loads of one quantized file have different fingerprints")
	}
	same.Param.Model.Params()[0].W32[0] += 0.5
	if fpChanged, err := FingerprintPredictor(same); err != nil {
		t.Fatal(err)
	} else if fpChanged == fp {
		t.Error("fingerprint of a float32-resident predictor ignores its weights")
	}

	// Save widens the float32 weights exactly; the file loads back at f64.
	full := filepath.Join(t.TempDir(), "full.bin")
	if err := SavePredictor(q, full); err != nil {
		t.Fatal(err)
	}
	back, err := LoadPredictor(full)
	if err != nil {
		t.Fatal(err)
	}
	want := q.Param.Model.Params()
	for i, v := range back.Param.Model.Params() {
		for j, w := range v.W {
			if w != float64(want[i].W32[j]) {
				t.Fatalf("tensor %d[%d]: saved %v, want %v", i, j, w, want[i].W32[j])
			}
		}
	}

	// Quantizing again works from the float32 weights; f32 mode is the
	// identity on them, so predictions do not move.
	for _, mode := range []quant.Mode{quant.F32, quant.Int8} {
		again, err := QuantizePredictor(q, mode)
		if err != nil {
			t.Fatalf("QuantizePredictor(%s) of a quantized predictor: %v", mode, err)
		}
		got := again.Param.Predict(src, 5)
		if len(got) == 0 {
			t.Fatalf("%s: re-quantized predictor returned no predictions", mode)
		}
		if mode == quant.F32 && !reflect.DeepEqual(got, q.Param.Predict(src, 5)) {
			t.Errorf("f32 re-quantization changed predictions")
		}
	}
}
