package server

import (
	"bytes"
	"encoding/base64"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/wasm"
)

// testState holds the expensive fixtures — a trained predictor and a
// compiled binary — shared by every test in the package.
var testState struct {
	once sync.Once
	pred *core.Predictor
	bin  []byte
	err  error
}

func testPredictor(t testing.TB) (*core.Predictor, []byte) {
	t.Helper()
	testState.once.Do(func() {
		cfg := core.DefaultConfig()
		cfg.Corpus.Packages = 16
		cfg.Corpus.MinFuncs = 3
		cfg.Corpus.MaxFuncs = 5
		cfg.Model.Hidden = 32
		cfg.Model.Embed = 24
		cfg.Model.Epochs = 1
		cfg.Model.MaxSrcLen = 60
		cfg.BPESrcVocab = 300
		testState.pred, testState.err = core.TrainPredictor(cfg, nil)
		if testState.err != nil {
			return
		}
		obj, err := cc.Compile(frontendSrc, cc.Options{Debug: true})
		if err != nil {
			testState.err = err
			return
		}
		testState.bin, _, testState.err = wasm.Encode(obj.Module)
	})
	if testState.err != nil {
		t.Fatal(testState.err)
	}
	return testState.pred, testState.bin
}

func newTestServer(t testing.TB, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	pred, _ := testPredictor(t)
	s, err := New(pred, cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postWasm(t testing.TB, url string, bin []byte, query string) (*http.Response, []byte) {
	t.Helper()
	u := url + "/v1/predict"
	if query != "" {
		u += "?" + query
	}
	resp, err := http.Post(u, "application/wasm", bytes.NewReader(bin))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func decodeResponse(t testing.TB, body []byte) PredictResponse {
	t.Helper()
	var pr PredictResponse
	if err := json.Unmarshal(body, &pr); err != nil {
		t.Fatalf("decoding response %q: %v", body, err)
	}
	return pr
}

func TestPredictHappyPath(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, bin := testPredictor(t)

	resp, body := postWasm(t, ts.URL, bin, "func=first&k=3")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	pr := decodeResponse(t, body)
	if len(pr.Functions) != 1 {
		t.Fatalf("functions = %d, want 1", len(pr.Functions))
	}
	fn := pr.Functions[0]
	if fn.Name != "first" {
		t.Errorf("name = %q, want first", fn.Name)
	}
	for _, elem := range []string{"param0", "param1", "return"} {
		preds := fn.Elements[elem]
		if len(preds) == 0 || len(preds) > 3 {
			t.Errorf("%s: %d predictions, want 1..3", elem, len(preds))
		}
		for _, p := range preds {
			if p.Text == "" || len(p.Tokens) == 0 {
				t.Errorf("%s: empty prediction", elem)
			}
		}
	}
}

func TestPredictAllFunctionsAndJSONEnvelope(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, bin := testPredictor(t)

	env, _ := json.Marshal(predictEnvelope{
		WasmBase64: base64.StdEncoding.EncodeToString(bin),
		K:          2,
	})
	resp, err := http.Post(ts.URL+"/v1/predict", "application/json", bytes.NewReader(env))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	pr := decodeResponse(t, body)
	if len(pr.Functions) != 2 {
		t.Fatalf("functions = %d, want 2 (all defined)", len(pr.Functions))
	}
}

func TestPredictBadWasm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postWasm(t, ts.URL, []byte("this is not wasm"), "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
	var er errorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error == "" {
		t.Errorf("error body malformed: %s", body)
	}
}

func TestPredictEmptyBody(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, body := postWasm(t, ts.URL, nil, "")
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status = %d, want 400; body %s", resp.StatusCode, body)
	}
}

func TestPredictOversizedBody(t *testing.T) {
	_, ts := newTestServer(t, Config{MaxBodyBytes: 64})
	resp, body := postWasm(t, ts.URL, make([]byte, 1024), "")
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("status = %d, want 413; body %s", resp.StatusCode, body)
	}
}

func TestPredictUnknownFunction(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, bin := testPredictor(t)
	resp, body := postWasm(t, ts.URL, bin, "func=no_such_function")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("status = %d, want 404; body %s", resp.StatusCode, body)
	}
	resp, body = postWasm(t, ts.URL, bin, "func=99")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("index out of range: status = %d, want 404; body %s", resp.StatusCode, body)
	}
}

func TestPredictByIndex(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, bin := testPredictor(t)
	resp, body := postWasm(t, ts.URL, bin, "func=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	pr := decodeResponse(t, body)
	if len(pr.Functions) != 1 || pr.Functions[0].Index != 1 {
		t.Fatalf("unexpected functions: %+v", pr.Functions)
	}
}

func TestPredictTimeout(t *testing.T) {
	_, ts := newTestServer(t, Config{RequestTimeout: time.Nanosecond})
	_, bin := testPredictor(t)
	resp, body := postWasm(t, ts.URL, bin, "")
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("status = %d, want 504; body %s", resp.StatusCode, body)
	}
}

func TestPredictCacheHit(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	_, bin := testPredictor(t)

	_, body := postWasm(t, ts.URL, bin, "func=first")
	first := decodeResponse(t, body)
	if first.CacheHits != 0 {
		t.Errorf("first request: cache_hits = %d, want 0", first.CacheHits)
	}
	resp, body := postWasm(t, ts.URL, bin, "func=first")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %s", resp.StatusCode, body)
	}
	second := decodeResponse(t, body)
	if len(second.Functions) != 1 {
		t.Fatalf("functions = %d", len(second.Functions))
	}
	wantElems := len(second.Functions[0].Elements)
	if second.CacheHits != wantElems {
		t.Errorf("second request: cache_hits = %d, want %d (every element cached)", second.CacheHits, wantElems)
	}
	if hits := s.met.cacheHits.Value(); hits != int64(wantElems) {
		t.Errorf("metrics cache hits = %d, want %d", hits, wantElems)
	}
	// Identical responses from cache and from inference.
	if fmt.Sprint(first.Functions) != fmt.Sprint(second.Functions) {
		t.Error("cached response differs from computed response")
	}
}

func TestCacheDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{CacheSize: -1})
	_, bin := testPredictor(t)
	postWasm(t, ts.URL, bin, "func=first")
	_, body := postWasm(t, ts.URL, bin, "func=first")
	pr := decodeResponse(t, body)
	if pr.CacheHits != 0 {
		t.Errorf("cache_hits = %d with caching disabled", pr.CacheHits)
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	_, bin := testPredictor(t)
	postWasm(t, ts.URL, bin, "func=first")
	postWasm(t, ts.URL, bin, "func=first")

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := string(body)
	for _, want := range []string{
		"snowwhite_requests_total 2",
		"snowwhite_cache_hits_total",
		"snowwhite_request_seconds_bucket",
		"snowwhite_inference_seconds_bucket",
		"snowwhite_batch_size_bucket",
		"snowwhite_batch_queue_seconds_bucket",
		"snowwhite_in_flight_requests 0",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("metrics missing %q:\n%s", want, out)
		}
	}
	// Cache hits must be visible after repeated identical requests.
	if strings.Contains(out, "snowwhite_cache_hits_total 0\n") {
		t.Errorf("no cache hits recorded after identical requests:\n%s", out)
	}
}

// TestConcurrentRequests hammers one server with 64 concurrent requests
// mixing functions and beam widths; run with -race. Every response must be
// a 200 with non-empty predictions.
func TestConcurrentRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 8, QueueDepth: 128, RequestTimeout: 2 * time.Minute})
	_, bin := testPredictor(t)

	const n = 64
	var wg sync.WaitGroup
	failures := make(chan string, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fn := []string{"first", "length"}[i%2]
			k := 1 + i%3
			resp, body := postWasm(t, ts.URL, bin, fmt.Sprintf("func=%s&k=%d", fn, k))
			if resp.StatusCode != http.StatusOK {
				failures <- fmt.Sprintf("request %d: status %d body %s", i, resp.StatusCode, body)
				return
			}
			pr := decodeResponse(t, body)
			if len(pr.Functions) != 1 || len(pr.Functions[0].Elements) == 0 {
				failures <- fmt.Sprintf("request %d: empty predictions", i)
			}
		}(i)
	}
	wg.Wait()
	close(failures)
	for f := range failures {
		t.Error(f)
	}
}

// TestQueueFull fills the pool with slow jobs and checks overload maps to
// 503 rather than unbounded queuing.
func TestQueueFull(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	_, bin := testPredictor(t)

	// Occupy the single worker and the single queue slot.
	block := make(chan struct{})
	started := make(chan struct{}, 2)
	s.jobs <- func() { started <- struct{}{}; <-block }
	s.jobs <- func() { started <- struct{}{}; <-block }
	<-started // worker picked up the first job; second fills the queue

	resp, body := postWasm(t, ts.URL, bin, "func=first")
	close(block)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503; body %s", resp.StatusCode, body)
	}
	if s.met.rejected.Value() == 0 {
		t.Error("rejection not counted")
	}
}

func TestGracefulShutdownDrains(t *testing.T) {
	pred, bin := testPredictor(t)
	s, err := New(pred, Config{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())

	// Launch requests, then shut down while they may still be in flight.
	var wg sync.WaitGroup
	codes := make(chan int, 8)
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, _ := postWasm(t, ts.URL, bin, "func=first")
			codes <- resp.StatusCode
		}()
	}
	wg.Wait() // httptest.Close below blocks on in-flight anyway; be explicit
	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	close(codes)
	for c := range codes {
		if c != http.StatusOK {
			t.Errorf("in-flight request got %d during shutdown", c)
		}
	}
	// After shutdown the pool is gone; a second Close must be a no-op.
	if err := s.Close(); err != nil {
		t.Fatalf("double shutdown: %v", err)
	}
}

func TestNewRejectsEmptyPredictor(t *testing.T) {
	if _, err := New(nil, Config{}); err == nil {
		t.Error("nil predictor accepted")
	}
	if _, err := New(&core.Predictor{}, Config{}); err == nil {
		t.Error("model-less predictor accepted")
	}
}
