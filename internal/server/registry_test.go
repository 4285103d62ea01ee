package server

import (
	"bytes"
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
	"repro/internal/quant"
)

// TestModelRouting registers a second model and checks both path-based
// and default routing, plus 404 for unknown names.
func TestModelRouting(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pred, bin := testPredictor(t)
	if err := s.RegisterModel("alt", pred, ModelSource{}); err != nil {
		t.Fatal(err)
	}

	resp, body := postWasm(t, ts.URL, bin, "func=first")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default route: status %d body %s", resp.StatusCode, body)
	}
	if pr := decodeResponse(t, body); pr.Model != "default" || pr.Version != 1 {
		t.Errorf("default route answered by %q v%d", pr.Model, pr.Version)
	}

	r2, err := http.Post(ts.URL+"/v1/models/alt/predict?func=first", "application/wasm", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := io.ReadAll(r2.Body)
	r2.Body.Close()
	if r2.StatusCode != http.StatusOK {
		t.Fatalf("named route: status %d body %s", r2.StatusCode, b2)
	}
	if pr := decodeResponse(t, b2); pr.Model != "alt" {
		t.Errorf("named route answered by %q", pr.Model)
	}

	r3, err := http.Post(ts.URL+"/v1/models/ghost/predict", "application/wasm", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, r3.Body)
	r3.Body.Close()
	if r3.StatusCode != http.StatusNotFound {
		t.Errorf("unknown model: status %d, want 404", r3.StatusCode)
	}

	// The query/envelope model field routes too.
	resp, body = postWasm(t, ts.URL, bin, "func=first&model=alt")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("model query param: status %d body %s", resp.StatusCode, body)
	}
	if pr := decodeResponse(t, body); pr.Model != "alt" {
		t.Errorf("model query param answered by %q", pr.Model)
	}
}

// TestModelsAdminAPI exercises GET /v1/models and DELETE semantics.
func TestModelsAdminAPI(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pred, _ := testPredictor(t)
	if err := s.RegisterModel("extra", pred, ModelSource{}); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(ts.URL + "/v1/models")
	if err != nil {
		t.Fatal(err)
	}
	var listing struct {
		Default string        `json:"default"`
		Models  []ModelStatus `json:"models"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&listing); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if listing.Default != "default" || len(listing.Models) != 2 {
		t.Fatalf("listing = %+v", listing)
	}
	for _, st := range listing.Models {
		if len(st.Fingerprint) != 64 {
			t.Errorf("model %q fingerprint %q is not a sha256 hex", st.Name, st.Fingerprint)
		}
		if st.Version != 1 {
			t.Errorf("model %q version %d, want 1", st.Name, st.Version)
		}
	}

	del := func(name string) int {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/models/"+name, nil)
		r, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, r.Body)
		r.Body.Close()
		return r.StatusCode
	}
	if code := del("extra"); code != http.StatusOK {
		t.Errorf("delete extra: %d", code)
	}
	if code := del("extra"); code != http.StatusNotFound {
		t.Errorf("delete missing: %d, want 404", code)
	}
	if code := del("default"); code != http.StatusBadRequest {
		t.Errorf("delete default: %d, want 400", code)
	}
}

// TestRegisterFailureLeavesRegistry: a registration that fails changes
// nothing. A new name does not appear in names(), /healthz, Models() or
// /metrics, and an existing name keeps serving its current version.
func TestRegisterFailureLeavesRegistry(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, bin := testPredictor(t)
	healthzModels := func() float64 {
		t.Helper()
		resp, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var h struct {
			Models float64 `json:"models"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&h); err != nil {
			t.Fatal(err)
		}
		return h.Models
	}
	names, models, healthz := s.reg.names(), s.Models(), healthzModels()

	for _, name := range []string{"ghost", "default"} {
		if err := s.RegisterModel(name, &core.Predictor{}, ModelSource{}); err == nil {
			t.Fatalf("%s: registering a predictor with no task models succeeded", name)
		}
		if got := s.reg.names(); !reflect.DeepEqual(got, names) {
			t.Errorf("%s: names() = %q, want %q", name, got, names)
		}
		if got := s.Models(); !reflect.DeepEqual(got, models) {
			t.Errorf("%s: Models() = %+v, want %+v", name, got, models)
		}
		if got := healthzModels(); got != healthz {
			t.Errorf("%s: /healthz models = %v, want %v", name, got, healthz)
		}
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	exposition, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if strings.Contains(string(exposition), `model="ghost"`) {
		t.Error("/metrics has series for the name whose registration failed")
	}
	resp, body := postWasm(t, ts.URL, bin, "func=first")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("default after failed swap: status %d body %s", resp.StatusCode, body)
	}
	if pr := decodeResponse(t, body); pr.Version != 1 {
		t.Errorf("default answered at version %d after a failed swap, want 1", pr.Version)
	}
}

// TestHotSwapVersionAndIsolation: re-registering a name bumps the
// version, keeps serving, and the same weights keep hitting the same
// cache entries (content-hash namespacing survives the swap).
func TestHotSwapVersionAndIsolation(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pred, bin := testPredictor(t)

	_, body := postWasm(t, ts.URL, bin, "func=first")
	first := decodeResponse(t, body)
	if first.Version != 1 {
		t.Fatalf("version = %d, want 1", first.Version)
	}
	if err := s.RegisterModel("default", pred, ModelSource{}); err != nil {
		t.Fatal(err)
	}
	resp, body := postWasm(t, ts.URL, bin, "func=first")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-swap status %d body %s", resp.StatusCode, body)
	}
	second := decodeResponse(t, body)
	if second.Version != 2 {
		t.Errorf("post-swap version = %d, want 2", second.Version)
	}
	// Same weights → same fingerprint → the swap serves from the cache the
	// old version populated.
	if wantElems := len(second.Functions[0].Elements); second.CacheHits != wantElems {
		t.Errorf("post-swap cache_hits = %d, want %d", second.CacheHits, wantElems)
	}
	if s.met.swaps.Value() != 1 {
		t.Errorf("swap counter = %d, want 1", s.met.swaps.Value())
	}
}

// TestHotSwapQuantizedNewWeights: reloading a quantized file that now
// holds different weights (same config and vocabularies) must not answer
// from the previous version's cache entries. Quantized models keep only
// float32 weights, so this pins that their fingerprint covers those.
func TestHotSwapQuantizedNewWeights(t *testing.T) {
	pred, bin := testPredictor(t)
	path := filepath.Join(t.TempDir(), "model.qbin")
	if err := core.ExportQuantized(pred, path, quant.Int8); err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{})
	if err := s.LoadModel("q8", ModelSource{Path: path}); err != nil {
		t.Fatal(err)
	}
	postWasm(t, ts.URL, bin, "func=first&k=3&model=q8")
	_, body := postWasm(t, ts.URL, bin, "func=first&k=3&model=q8")
	if pr := decodeResponse(t, body); pr.CacheHits == 0 {
		t.Fatal("repeated request did not hit the cache")
	}

	// Retrain stand-in: perturb one weight and re-export to the same path.
	q, err := core.LoadQuantizedPredictor(path)
	if err != nil {
		t.Fatal(err)
	}
	q.Param.Model.Params()[0].W32[0] += 0.5
	if err := core.ExportQuantized(q, path, quant.F32); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Reload(); err != nil {
		t.Fatal(err)
	}
	_, body = postWasm(t, ts.URL, bin, "func=first&k=3&model=q8")
	if pr := decodeResponse(t, body); pr.Version != 2 || pr.CacheHits != 0 {
		t.Errorf("after reload: version %d with %d cache hits, want version 2 with none", pr.Version, pr.CacheHits)
	}
}

// TestHotSwapUnderLoad hammers the server with concurrent predictions,
// half of them precision=f32, while the default model hot-swaps
// repeatedly to the same in-memory predictor; run with -race. Each
// version builds its f32 engine from those shared weights while the
// previous version still decodes on them; without the cache every
// request decodes. Zero failed requests is the acceptance bar: every
// response is a 200 with non-empty predictions from the engine asked
// for, before, during, and after the swaps.
func TestHotSwapUnderLoad(t *testing.T) {
	t.Run("cached", func(t *testing.T) { hotSwapUnderLoad(t, 0) })
	t.Run("uncached", func(t *testing.T) { hotSwapUnderLoad(t, -1) })
}

func hotSwapUnderLoad(t *testing.T, cacheSize int) {
	s, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 256, RequestTimeout: 2 * time.Minute, CacheSize: cacheSize})
	pred, bin := testPredictor(t)

	var stop atomic.Bool
	var wg sync.WaitGroup
	failures := make(chan string, 256)
	for g := 0; g < 6; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				fn := []string{"first", "length"}[i%2]
				precision := []string{"f64", "f32"}[(g+i)%2]
				resp, body := postWasm(t, ts.URL, bin, fmt.Sprintf("func=%s&k=%d&precision=%s", fn, 1+i%3, precision))
				if resp.StatusCode != http.StatusOK {
					failures <- fmt.Sprintf("worker %d request %d: status %d body %s", g, i, resp.StatusCode, body)
					return
				}
				pr := decodeResponse(t, body)
				if len(pr.Functions) != 1 || len(pr.Functions[0].Elements) == 0 {
					failures <- fmt.Sprintf("worker %d request %d: empty predictions", g, i)
					return
				}
				if pr.Precision != precision {
					failures <- fmt.Sprintf("worker %d request %d: precision=%s answered at %q", g, i, precision, pr.Precision)
					return
				}
			}
		}(g)
	}
	for swap := 0; swap < 5; swap++ {
		time.Sleep(50 * time.Millisecond)
		if err := s.RegisterModel("default", pred, ModelSource{}); err != nil {
			t.Errorf("swap %d: %v", swap, err)
		}
	}
	time.Sleep(50 * time.Millisecond)
	stop.Store(true)
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
	if got := s.met.swaps.Value(); got != 5 {
		t.Errorf("swap counter = %d, want 5", got)
	}
	if es, err := s.acquireModel(""); err != nil {
		t.Errorf("post-swap acquire: %v", err)
	} else {
		if es.version != 6 {
			t.Errorf("final version = %d, want 6", es.version)
		}
		es.release()
	}
}

// TestModelPutRejectsUnknownFields: the PUT body is a ModelSource and
// nothing else. An unknown field — a typo, or an option that no longer
// exists such as f32_path — is a 400 naming it, data after the object
// is a 400 too, and nothing is registered; the plain body still loads.
func TestModelPutRejectsUnknownFields(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	pred, _ := testPredictor(t)
	path := filepath.Join(t.TempDir(), "model.bin")
	if err := core.SavePredictor(pred, path); err != nil {
		t.Fatal(err)
	}
	put := func(body string) (int, string) {
		t.Helper()
		req, _ := http.NewRequest(http.MethodPut, ts.URL+"/v1/models/canary", strings.NewReader(body))
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := io.ReadAll(resp.Body)
		resp.Body.Close()
		return resp.StatusCode, string(b)
	}
	pathJSON, _ := json.Marshal(path)
	for _, field := range []string{"bogus", "f32_path"} {
		code, body := put(fmt.Sprintf(`{"path":%s,%q:%s}`, pathJSON, field, pathJSON))
		if code != http.StatusBadRequest || !strings.Contains(body, field) {
			t.Errorf("%s: status %d body %s, want 400 naming the field", field, code, body)
		}
		if n := len(s.Models()); n != 1 {
			t.Fatalf("%s: %d models registered after a rejected PUT, want 1", field, n)
		}
	}
	if code, body := put(fmt.Sprintf(`{"path":%s} {}`, pathJSON)); code != http.StatusBadRequest || len(s.Models()) != 1 {
		t.Errorf("trailing data: status %d body %s, want 400 and nothing registered", code, body)
	}
	if code, body := put(fmt.Sprintf(`{"path":%s}`, pathJSON)); code != http.StatusOK {
		t.Fatalf("plain PUT: status %d body %s", code, body)
	}
	if n := len(s.Models()); n != 2 {
		t.Errorf("%d models registered after the plain PUT, want 2", n)
	}
}

// TestReloadFromDisk saves the predictor, serves it via NewWithSource,
// and checks Reload hot-swaps it from the recorded path (the SIGHUP
// path), bumping the version without dropping requests.
func TestReloadFromDisk(t *testing.T) {
	pred, bin := testPredictor(t)
	dir := t.TempDir()
	path := filepath.Join(dir, "model.bin")
	if err := core.SavePredictor(pred, path); err != nil {
		t.Fatal(err)
	}
	s, err := NewWithSource(pred, Config{}, ModelSource{Path: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	reloaded, err := s.Reload()
	if err != nil {
		t.Fatalf("reload: %v", err)
	}
	if len(reloaded) != 1 || reloaded[0] != "default" {
		t.Fatalf("reloaded = %v, want [default]", reloaded)
	}
	st := s.Models()
	if len(st) != 1 || st[0].Version != 2 {
		t.Fatalf("post-reload status = %+v, want version 2", st)
	}

	// In-memory models (no Path) are skipped, not an error.
	if err := s.RegisterModel("mem", pred, ModelSource{}); err != nil {
		t.Fatal(err)
	}
	reloaded, err = s.Reload()
	if err != nil || len(reloaded) != 1 {
		t.Fatalf("second reload = %v, %v; want just the disk-backed model", reloaded, err)
	}

	// The reloaded engines still serve.
	req := httptest.NewRequest(http.MethodPost, "/v1/predict?func=first", bytes.NewReader(bin))
	req.Header.Set("Content-Type", "application/wasm")
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, req)
	if rec.Code != http.StatusOK {
		t.Fatalf("post-reload predict: %d %s", rec.Code, rec.Body.String())
	}
}
