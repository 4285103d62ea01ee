package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/quant"
)

// f32State caches the f32 quantization of the shared test predictor: a
// float32-resident predictor, like a quantized file.
var f32State struct {
	once sync.Once
	pred *core.Predictor
	err  error
}

func testF32Resident(t testing.TB) *core.Predictor {
	t.Helper()
	pred, _ := testPredictor(t)
	f32State.once.Do(func() {
		f32State.pred, f32State.err = core.QuantizePredictor(pred, quant.F32)
	})
	if f32State.err != nil {
		t.Fatal(f32State.err)
	}
	return f32State.pred
}

// TestF32Routing covers the precision=f32 opt-in on a server configured
// with nothing but its model, across both request encodings, and the
// echo of the precision in the response.
func TestF32Routing(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, bin := testPredictor(t)

	resp, body := postWasm(t, ts.URL, bin, "func=first&k=3&precision=f32")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	pr := decodeResponse(t, body)
	if pr.Precision != "f32" {
		t.Errorf("response precision = %q, want f32", pr.Precision)
	}
	if len(pr.Functions) != 1 || len(pr.Functions[0].Elements) == 0 {
		t.Fatalf("f32 request returned no predictions: %s", body)
	}
	for elem, preds := range pr.Functions[0].Elements {
		if len(preds) == 0 || preds[0].Text == "" {
			t.Errorf("%s: empty f32 prediction", elem)
		}
	}

	// Same opt-in through the JSON envelope.
	env, _ := json.Marshal(predictEnvelope{
		WasmBase64: base64.StdEncoding.EncodeToString(bin),
		Func:       "first",
		K:          2,
		Precision:  "f32",
	})
	hresp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	ebody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		t.Fatalf("envelope status = %d, body %s", hresp.StatusCode, ebody)
	}
	if epr := decodeResponse(t, ebody); epr.Precision != "f32" {
		t.Errorf("envelope response precision = %q, want f32", epr.Precision)
	}

	// precision=f64 (and omission) stays on the full-precision engine.
	for _, q := range []string{"func=first&k=3", "func=first&k=3&precision=f64"} {
		resp, body = postWasm(t, ts.URL, bin, q)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, body %s", q, resp.StatusCode, body)
		}
		if pr := decodeResponse(t, body); pr.Precision != "f64" {
			t.Errorf("%s: response precision = %q, want f64", q, pr.Precision)
		}
	}

	// Malformed selection.
	resp, body = postWasm(t, ts.URL, bin, "precision=f16")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("precision=f16: status = %d, want 400; body %s", resp.StatusCode, body)
	}
}

// TestF32QuantizedPrimaryReportsPrecision: a name whose primary file is
// quantized (SWQP1) decodes on the f32 engine, so a plain request —
// no precision selector — must report "f32", not the request's tier.
// precision=f32 is answered by the primary itself, from the same cache
// entries.
func TestF32QuantizedPrimaryReportsPrecision(t *testing.T) {
	pred, bin := testPredictor(t)
	path := filepath.Join(t.TempDir(), "model.qbin")
	if err := core.ExportQuantized(pred, path, quant.Int8); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{})
	if err := s.LoadModel("q8", ModelSource{Path: path}); err != nil {
		t.Fatal(err)
	}
	resp, body := postWasm(t, ts.URL, bin, "func=first&k=3&model=q8")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	if pr := decodeResponse(t, body); pr.Precision != "f32" || pr.Model != "q8" {
		t.Errorf("quantized primary answered as model %q precision %q, want q8/f32", pr.Model, pr.Precision)
	}

	resp, body = postWasm(t, ts.URL, bin, "func=first&k=3&model=q8&precision=f32")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("precision=f32: status = %d, body %s", resp.StatusCode, body)
	}
	// Same engine as the plain request, so the same cache entries.
	if pr := decodeResponse(t, body); pr.Precision != "f32" || pr.CacheHits != len(pr.Functions[0].Elements) {
		t.Errorf("precision=f32 answered at %q with %d cache hits, want f32 from the primary's entries", pr.Precision, pr.CacheHits)
	}
}

// TestFastMathRouting: the fast-math engine is gone. fast=true, as a
// query parameter or as the JSON envelope field, is a client error whose
// message points to precision=f32 — never a silent full-precision
// answer. fast=false stays harmless and a malformed flag is still a 400.
func TestFastMathRouting(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, bin := testPredictor(t)

	for _, q := range []string{"func=first&k=3&fast=true", "fast=true&precision=f32", "fast=maybe"} {
		resp, body := postWasm(t, ts.URL, bin, q)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("%s: status = %d, want 400; body %s", q, resp.StatusCode, body)
		}
		if strings.Contains(q, "true") && !strings.Contains(string(body), "precision=f32") {
			t.Errorf("%s: error does not point to precision=f32: %s", q, body)
		}
	}

	env, _ := json.Marshal(predictEnvelope{
		WasmBase64: base64.StdEncoding.EncodeToString(bin),
		Func:       "first",
		K:          2,
		Fast:       true,
	})
	hresp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	ebody, _ := io.ReadAll(hresp.Body)
	hresp.Body.Close()
	if hresp.StatusCode != http.StatusBadRequest || !strings.Contains(string(ebody), "precision=f32") {
		t.Fatalf("envelope fast=true: status = %d, body %s; want 400 pointing to precision=f32", hresp.StatusCode, ebody)
	}

	resp, body := postWasm(t, ts.URL, bin, "func=first&k=3&fast=false")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("fast=false: status = %d, body %s", resp.StatusCode, body)
	}
}

// TestFastMathUnavailable: fast=true is rejected the same way on a
// server whose model is float32-resident, where the primary is the f32
// engine — the 400 does not depend on which engines the model has.
func TestFastMathUnavailable(t *testing.T) {
	_, ts := newTestServerFor(t, testF32Resident(t), Config{})
	_, bin := testPredictor(t)
	resp, body := postWasm(t, ts.URL, bin, "fast=true")
	if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(body), "precision=f32") {
		t.Fatalf("status = %d, body %s; want 400 pointing to precision=f32", resp.StatusCode, body)
	}
}

// TestF32EveryModel: precision=f32 needs no configuration. The default
// model, a model registered in memory and one loaded from an f64 file
// each decode it on their own f32 engine (no cache: the three share a
// fingerprint), and the answers agree because the weights do.
func TestF32EveryModel(t *testing.T) {
	s, ts := newTestServer(t, Config{CacheSize: -1})
	pred, bin := testPredictor(t)
	if err := s.RegisterModel("mem", pred, ModelSource{}); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := core.SavePredictor(pred, path); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadModel("disk", ModelSource{Path: path}); err != nil {
		t.Fatal(err)
	}
	var want string
	for _, model := range []string{"default", "mem", "disk"} {
		resp, body := postWasm(t, ts.URL, bin, "k=3&precision=f32&model="+model)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("%s: status = %d, want 200; body %s", model, resp.StatusCode, body)
		}
		pr := decodeResponse(t, body)
		if pr.Precision != "f32" || pr.Model != model {
			t.Errorf("%s: answered by model %q at precision %q", model, pr.Model, pr.Precision)
		}
		got := fmt.Sprint(pr.Functions)
		if want == "" {
			want = got
		} else if got != want {
			t.Errorf("%s: f32 answers differ from the default model's:\n%s\n%s", model, got, want)
		}
	}
}

// TestHealthzReportsF32: readiness no longer tells clients whether
// precision=f32 will be accepted, because it always is. Neither an f64
// model nor a float32-resident one reports an f32 (or fast_math) field,
// and both answer precision=f32.
func TestHealthzReportsF32(t *testing.T) {
	_, bin := testPredictor(t)
	check := func(url string) {
		t.Helper()
		resp, err := http.Get(url + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h map[string]any
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		for _, gone := range []string{"f32", "fast_math"} {
			if _, ok := h[gone]; ok {
				t.Errorf("healthz still reports %q", gone)
			}
		}
		presp, body := postWasm(t, url, bin, "precision=f32")
		if presp.StatusCode != http.StatusOK {
			t.Fatalf("precision=f32: status = %d, want 200; body %s", presp.StatusCode, body)
		}
		if pr := decodeResponse(t, body); pr.Precision != "f32" {
			t.Errorf("precision=f32 answered at precision %q", pr.Precision)
		}
	}
	_, plain := newTestServer(t, Config{})
	check(plain.URL)
	_, resident := newTestServerFor(t, testF32Resident(t), Config{})
	check(resident.URL)
}

// TestF32SameAnswers pins what precision=f32 computes on an f64 model: a
// server given nothing but the model answers every function at every k
// bit for bit like (a) a server whose primary is the f32 quantization of
// the model, and (b) an in-process decode of a separately loaded copy
// switched to f32 with SetPrecision.
func TestF32SameAnswers(t *testing.T) {
	pred, bin := testPredictor(t)
	_, plain := newTestServer(t, Config{})
	_, quantized := newTestServerFor(t, testF32Resident(t), Config{})

	path := filepath.Join(t.TempDir(), "model.bin")
	if err := core.SavePredictor(pred, path); err != nil {
		t.Fatal(err)
	}
	copied, err := core.LoadPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, tr := range []*core.Trained{copied.Param, copied.Return} {
		if err := tr.Model.SetPrecision("f32"); err != nil {
			t.Fatal(err)
		}
	}
	ld, err := ingest.Load(bin)
	if err != nil {
		t.Fatal(err)
	}

	answers := func(url string, k int) []FunctionResult {
		t.Helper()
		resp, body := postWasm(t, url, bin, fmt.Sprintf("k=%d&precision=f32", k))
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("k=%d: status = %d, body %s", k, resp.StatusCode, body)
		}
		pr := decodeResponse(t, body)
		if pr.Precision != "f32" {
			t.Errorf("k=%d: response precision = %q, want f32", k, pr.Precision)
		}
		if len(pr.Functions) != len(ld.Funcs) {
			t.Fatalf("k=%d: %d functions answered, want %d", k, len(pr.Functions), len(ld.Funcs))
		}
		return pr.Functions
	}
	for _, k := range []int{1, 3, 5} {
		got, want := answers(plain.URL, k), answers(quantized.URL, k)
		for i, fn := range got {
			if len(fn.Elements) == 0 {
				t.Fatalf("k=%d %s: no elements answered", k, fn.Name)
			}
			if !reflect.DeepEqual(fn.Elements, want[i].Elements) {
				t.Errorf("k=%d %s: differs from a primary quantized to f32:\n%v\n%v", k, fn.Name, fn.Elements, want[i].Elements)
			}
			lf := &ld.Funcs[fn.Index]
			for _, el := range lf.Elements {
				src := copied.Input(ld.Decoded.Module, lf.Index, el)
				ref := copied.ModelFor(el).PredictTyped([][]string{src}, []int{k})[0]
				if !reflect.DeepEqual(fn.Elements[el.Name], ref) {
					t.Errorf("k=%d %s.%s: served %v, in-process f32 decode %v", k, fn.Name, el.Name, fn.Elements[el.Name], ref)
				}
			}
		}
	}
}

// TestF32CacheIsolation: the f32 engine must never answer full-precision
// requests from the cache (or vice versa), even for the same function
// and k — the tiers may rank types differently.
func TestF32CacheIsolation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, bin := testPredictor(t)

	_, body := postWasm(t, ts.URL, bin, "func=first&k=3")
	full := decodeResponse(t, body)
	if full.CacheHits != 0 {
		t.Fatalf("first full request: cache_hits = %d, want 0", full.CacheHits)
	}
	// The f32 request for the identical (function, k) must miss.
	_, body = postWasm(t, ts.URL, bin, "func=first&k=3&precision=f32")
	f32 := decodeResponse(t, body)
	if f32.CacheHits != 0 {
		t.Errorf("f32 request answered from full-precision cache (%d hits)", f32.CacheHits)
	}
	// And each engine's repeat hits its own entries.
	_, body = postWasm(t, ts.URL, bin, "func=first&k=3&precision=f32")
	if again := decodeResponse(t, body); again.CacheHits != len(again.Functions[0].Elements) {
		t.Errorf("repeated f32 request: cache_hits = %d, want %d",
			again.CacheHits, len(again.Functions[0].Elements))
	}
}

// TestF32Deterministic: repeated f32 requests through the batcher return
// byte-identical predictions.
func TestF32Deterministic(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	_, bin := testPredictor(t)
	_, first := postWasm(t, ts.URL, bin, "func=first&k=3&precision=f32")
	_, second := postWasm(t, ts.URL, bin, "func=first&k=3&precision=f32")
	if !bytes.Equal(first, second) {
		t.Errorf("f32 responses differ across identical requests:\n%s\n%s", first, second)
	}
}

// TestF32MixedStressShutdown is the -race stress test for two engines
// of one model: many concurrent requests alternating between the full
// and f32 engines, pushed through their dynamic batchers (small batches,
// both encodings), with the server shut down while the last wave is
// still in flight. Every completed response must be correct for the
// engine that served it, and identical queries to one engine must agree
// (batching and the f32 kernels stay deterministic under load).
func TestF32MixedStressShutdown(t *testing.T) {
	pred, bin := testPredictor(t)
	cfg := Config{
		Workers:        4,
		QueueDepth:     256,
		BatchSize:      4,
		BatchWait:      time.Millisecond,
		RequestTimeout: 2 * time.Minute,
	}
	s, err := New(pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	const n = 64
	var wg sync.WaitGroup
	type result struct {
		key       string
		precision string
		body      string
		code      int
		err       error
	}
	results := make(chan result, n)
	var finished atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			defer finished.Add(1)
			fn := []string{"first", "length"}[i%2]
			k := 1 + i%2
			precision := "f64"
			if i%4 < 2 {
				precision = "f32"
			}
			key := fmt.Sprintf("%s/%d/%s", fn, k, precision)
			var resp *http.Response
			var err error
			if i%8 == 0 {
				// Exercise the JSON envelope under load too.
				env, _ := json.Marshal(predictEnvelope{
					WasmBase64: base64.StdEncoding.EncodeToString(bin),
					Func:       fn, K: k, Precision: precision,
				})
				resp, err = http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(env))
			} else {
				url := fmt.Sprintf("%s/v1/predict?func=%s&k=%d&precision=%s", ts.URL, fn, k, precision)
				resp, err = http.Post(url, "application/wasm", bytes.NewReader(bin))
			}
			if err != nil {
				// Connection torn down by shutdown: acceptable.
				results <- result{key: key, err: err}
				return
			}
			body, rerr := io.ReadAll(resp.Body)
			resp.Body.Close()
			if rerr != nil {
				results <- result{key: key, err: rerr}
				return
			}
			results <- result{key: key, precision: precision, body: string(body), code: resp.StatusCode}
		}(i)
	}

	// Shut down mid-flight: wait until at least half the wave is done (so
	// the batchers have seen real mixed load and some requests are still
	// in the air), then stop the HTTP front first (it drains handlers),
	// then the pool and batchers — the server's documented order.
	for finished.Load() < n/2 {
		time.Sleep(time.Millisecond)
	}
	ts.Close()
	wg.Wait()
	if err := s.Close(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(results)

	canonical := map[string]string{}
	completed := 0
	for r := range results {
		if r.err != nil {
			continue
		}
		switch r.code {
		case http.StatusOK:
		case http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			// Load shedding under stress is allowed.
			continue
		default:
			t.Fatalf("%s: unexpected status %d: %s", r.key, r.code, r.body)
		}
		completed++
		var pr PredictResponse
		if err := json.Unmarshal([]byte(r.body), &pr); err != nil {
			t.Fatalf("%s: bad response body: %v", r.key, err)
		}
		if pr.Precision != r.precision {
			t.Fatalf("%s: answered by the %q engine", r.key, pr.Precision)
		}
		if len(pr.Functions) != 1 || len(pr.Functions[0].Elements) == 0 {
			t.Fatalf("%s: empty predictions", r.key)
		}
		// Compare predictions only: cache_hits legitimately varies between
		// identical requests.
		preds := fmt.Sprint(pr.Functions)
		if prev, ok := canonical[r.key]; ok {
			if prev != preds {
				t.Errorf("%s: non-deterministic predictions under load:\n%s\n%s", r.key, prev, preds)
			}
		} else {
			canonical[r.key] = preds
		}
	}
	if completed == 0 {
		t.Fatal("no request completed before shutdown")
	}
	// A second shutdown stays a no-op.
	if err := s.Close(); err != nil {
		t.Fatalf("double shutdown: %v", err)
	}
}
