package main

import (
	"bytes"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"
)

// okPredict is a well-formed predict response: one function with two
// elements, one of them answered from the cache.
const okPredict = `{"functions":[{"elements":{"param0":[{"text":"primitive int 32"}],"return":[{"text":"primitive int 32"}]}}],"cache_hits":1}`

// fakeServe stands in for `snowwhite serve`: /healthz answers ok, every
// POST answers okPredict unless it is among the first failPosts, which
// get a 500. It records each request as "METHOD path?query".
type fakeServe struct {
	failPosts int

	mu    sync.Mutex
	reqs  []string
	posts int
}

func (f *fakeServe) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	f.mu.Lock()
	f.reqs = append(f.reqs, r.Method+" "+r.URL.RequestURI())
	fail := false
	if r.Method == http.MethodPost {
		f.posts++
		fail = f.posts <= f.failPosts
	}
	f.mu.Unlock()
	switch {
	case r.Method == http.MethodGet && r.URL.Path == "/healthz":
		w.Write([]byte(`{"status":"ok"}`))
	case r.Method == http.MethodPost && !fail:
		w.Write([]byte(okPredict))
	default:
		http.Error(w, `{"error":"boom"}`, http.StatusInternalServerError)
	}
}

func (f *fakeServe) requests() []string {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.reqs...)
}

// startFake serves f and returns its host:port.
func startFake(t *testing.T, f *fakeServe) string {
	t.Helper()
	srv := httptest.NewServer(f)
	t.Cleanup(srv.Close)
	return strings.TrimPrefix(srv.URL, "http://")
}

// wasmFile writes a stand-in request body; the fake server never reads it.
func wasmFile(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bin.wasm")
	if err := os.WriteFile(path, []byte("\x00asm\x01\x00\x00\x00"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestBenchServeFireCountsFailures: a request counts as ok only when the
// server answers 200 with a decodable predict response.
func TestBenchServeFireCountsFailures(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch r.URL.Path {
		case "/ok":
			w.Write([]byte(okPredict))
		case "/non200":
			// A decodable body does not rescue a non-200 status.
			w.WriteHeader(http.StatusServiceUnavailable)
			w.Write([]byte(okPredict))
		case "/garbage":
			w.Write([]byte("not json"))
		}
	}))
	defer srv.Close()
	for _, tc := range []struct {
		path       string
		ok         bool
		elems, hit int
	}{
		{"/ok", true, 2, 1},
		{"/non200", false, 0, 0},
		{"/garbage", false, 0, 0},
	} {
		tgt := &benchTarget{url: srv.URL + tc.path, body: []byte("x"), client: srv.Client()}
		_, elems, hits, ok := tgt.fire()
		if ok != tc.ok || elems != tc.elems || hits != tc.hit {
			t.Errorf("%s: ok=%v elements=%d hits=%d, want ok=%v elements=%d hits=%d",
				tc.path, ok, elems, hits, tc.ok, tc.elems, tc.hit)
		}
	}
	tgt := &benchTarget{url: srv.URL + "/garbage", body: []byte("x"), client: srv.Client()}
	if res := runLoad(tgt, 50, 100*time.Millisecond); res.Requests == 0 || res.Failed != res.Requests {
		t.Errorf("undecodable responses: %d of %d requests failed, want all", res.Failed, res.Requests)
	}
}

// TestBenchServeMaxFailures: -max-failures 0 turns one failed request
// into an error and passes a run where none fail. Requests go to the
// route and query the flags select.
func TestBenchServeMaxFailures(t *testing.T) {
	file := wasmFile(t)
	run := func(f *fakeServe, extra ...string) error {
		addr := startFake(t, f)
		args := append([]string{"-addr", addr, "-file", file, "-qps", "20", "-duration", "200ms", "-max-failures", "0"}, extra...)
		return runBenchServe(args)
	}

	if err := run(&fakeServe{failPosts: 1}); err == nil {
		t.Error("one failed request passed -max-failures 0")
	}

	f := &fakeServe{}
	if err := run(f, "-model", "q8", "-func", "first", "-k", "3", "-precision", "f32"); err != nil {
		t.Fatalf("no failed requests: %v", err)
	}
	reqs := f.requests()
	if len(reqs) < 2 || reqs[0] != "GET /healthz" {
		t.Fatalf("requests = %q, want a /healthz preflight then the load", reqs)
	}
	for _, r := range reqs[1:] {
		if want := "POST /v1/models/q8/predict?func=first&k=3&precision=f32"; r != want {
			t.Errorf("load request %q, want %q", r, want)
		}
	}
}

// TestBenchServeReadyIsHealthzOnly: -ready sends exactly one GET
// /healthz and nothing else, so probing a server with a persistent
// cache leaves the cache, and its shutdown snapshot, as they were.
func TestBenchServeReadyIsHealthzOnly(t *testing.T) {
	f := &fakeServe{}
	if err := runBenchServe([]string{"-addr", startFake(t, f), "-ready"}); err != nil {
		t.Fatal(err)
	}
	if got, want := f.requests(), []string{"GET /healthz"}; !reflect.DeepEqual(got, want) {
		t.Errorf("requests = %q, want %q", got, want)
	}

	down := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.WriteHeader(http.StatusServiceUnavailable)
	}))
	defer down.Close()
	if err := runBenchServe([]string{"-addr", strings.TrimPrefix(down.URL, "http://"), "-ready"}); err == nil {
		t.Error("-ready passed on a 503 healthz")
	}
}

// TestBenchServeFlags pins bench-serve's ten flags, so a removed one
// (such as the old -sweep) is a usage error with exit status 2, not a
// silent no-op. Each case re-runs this test binary, because flag parsing
// exits the process.
func TestBenchServeFlags(t *testing.T) {
	if args := os.Getenv("BENCH_SERVE_ARGS"); args != "" {
		runBenchServe(strings.Fields(args))
		os.Exit(0)
	}
	run := func(args string) (int, string) {
		t.Helper()
		cmd := exec.Command(os.Args[0], "-test.run=^TestBenchServeFlags$")
		cmd.Env = append(os.Environ(), "BENCH_SERVE_ARGS="+args)
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		err := cmd.Run()
		if exit, ok := err.(*exec.ExitError); ok {
			return exit.ExitCode(), stderr.String()
		} else if err != nil {
			t.Fatal(err)
		}
		return 0, stderr.String()
	}

	_, usage := run("-h")
	var flags []string
	for _, line := range strings.Split(usage, "\n") {
		if strings.HasPrefix(line, "  -") {
			flags = append(flags, strings.Fields(line)[0])
		}
	}
	want := []string{"-addr", "-duration", "-file", "-func", "-k", "-max-failures", "-model", "-precision", "-qps", "-ready"}
	if !reflect.DeepEqual(flags, want) {
		t.Errorf("flags = %q, want %q", flags, want)
	}

	code, stderr := run("-addr 127.0.0.1:1 -sweep 5 -ready")
	if code != 2 || !strings.Contains(stderr, "flag provided but not defined: -sweep") {
		t.Errorf("-sweep: exit %d, stderr %q; want exit 2 and an undefined-flag error", code, stderr)
	}
}
