package server

import (
	"bytes"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/quant"
)

// fillCache populates a cache with n distinct entries plus one
// get-touch so the LRU order is non-trivial.
func fillCache(c *lruCache, n int) {
	for i := 0; i < n; i++ {
		eng := ""
		if i%2 == 0 {
			eng = "f32"
		}
		k := cacheKey{model: [32]byte{0xAA}, fn: [32]byte{byte(i)}, elem: "param0", k: 5, engine: eng}
		c.put(k, preds(fmt.Sprintf("t%d", i)))
	}
	c.get(cacheKey{model: [32]byte{0xAA}, fn: [32]byte{0}, elem: "param0", k: 5, engine: "f32"})
}

// TestCacheSnapshotRoundTripDeterminism: snapshot → load → snapshot must
// be byte-identical, and the restored cache must match entry for entry in
// LRU order.
func TestCacheSnapshotRoundTripDeterminism(t *testing.T) {
	dir := t.TempDir()
	p1 := filepath.Join(dir, "snap1.jsonl")
	p2 := filepath.Join(dir, "snap2.jsonl")

	c := newLRUCache(16)
	fillCache(c, 8)
	n, err := snapshotTo(p1, c)
	if err != nil || n != 8 {
		t.Fatalf("snapshot: n=%d err=%v", n, err)
	}

	c2 := newLRUCache(16)
	loaded, skipped, err := loadCacheFile(p1, c2)
	if err != nil || loaded != 8 || skipped != 0 {
		t.Fatalf("load: loaded=%d skipped=%d err=%v", loaded, skipped, err)
	}
	e1, e2 := c.entries(), c2.entries()
	if len(e1) != len(e2) {
		t.Fatalf("entry count %d vs %d", len(e1), len(e2))
	}
	for i := range e1 {
		if e1[i].key != e2[i].key || e1[i].val[0].Text != e2[i].val[0].Text {
			t.Errorf("entry %d differs after round trip", i)
		}
	}

	if _, err := snapshotTo(p2, c2); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(p1)
	b2, _ := os.ReadFile(p2)
	if !bytes.Equal(b1, b2) {
		t.Errorf("snapshot → load → snapshot not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
}

// TestCacheLogTornTail: a crash mid-append leaves a torn last line; the
// replay must keep everything before it.
func TestCacheLogTornTail(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.jsonl")

	c := newLRUCache(16)
	fillCache(c, 4)
	if _, err := snapshotTo(path, c); err != nil {
		t.Fatal(err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"model":"truncated mid-`)
	f.Close()

	c2 := newLRUCache(16)
	loaded, skipped, err := loadCacheFile(path, c2)
	if err != nil {
		t.Fatalf("torn tail should not error: %v", err)
	}
	if loaded != 4 || skipped != 1 {
		t.Errorf("loaded=%d skipped=%d, want 4 and 1", loaded, skipped)
	}
}

// TestCacheLogMissingAndForeign: a missing file is an empty cache;
// foreign records (bad hashes, empty preds) are skipped, not fatal.
func TestCacheLogMissingAndForeign(t *testing.T) {
	c := newLRUCache(4)
	loaded, skipped, err := loadCacheFile(filepath.Join(t.TempDir(), "nope.jsonl"), c)
	if err != nil || loaded != 0 || skipped != 0 {
		t.Fatalf("missing file: loaded=%d skipped=%d err=%v", loaded, skipped, err)
	}

	path := filepath.Join(t.TempDir(), "mixed.jsonl")
	good := recordOf(cacheKey{model: [32]byte{1}, fn: [32]byte{2}, elem: "return", k: 3}, preds("ok"))
	lines := []string{
		`{"model":"zz","fn":"zz","elem":"x","k":1,"preds":[{"text":"bad hex"}]}`,
		`{"model":"` + good.Model + `","fn":"` + good.Fn + `","elem":"return","k":3,"preds":[]}`,
		`{"model":"` + good.Model + `","fn":"` + good.Fn + `","elem":"return","k":3,"preds":[{"text":"ok","tokens":["ok"]}]}`,
	}
	if err := os.WriteFile(path, []byte(lines[0]+"\n"+lines[1]+"\n"+lines[2]+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	loaded, skipped, err = loadCacheFile(path, c)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 1 || skipped != 2 {
		t.Errorf("loaded=%d skipped=%d, want 1 and 2", loaded, skipped)
	}
}

// TestCacheLogSkipsLegacyFastEntries: entries of the removed fast-math
// engine — engine:"fast", or the older fast:true encoding — are
// unreachable by any request. Replay must drop them, and the compacting
// snapshot must not carry them forward.
func TestCacheLogSkipsLegacyFastEntries(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "cache.jsonl")
	full := recordOf(cacheKey{model: [32]byte{1}, fn: [32]byte{2}, elem: "return", k: 3}, preds("full"))
	f32 := recordOf(cacheKey{model: [32]byte{1}, fn: [32]byte{2}, elem: "return", k: 3, engine: "f32"}, preds("single"))
	var log bytes.Buffer
	enc := json.NewEncoder(&log)
	enc.Encode(full)
	log.WriteString(`{"model":"` + full.Model + `","fn":"` + full.Fn + `","elem":"return","k":3,"engine":"fast","preds":[{"text":"fast"}]}` + "\n")
	log.WriteString(`{"model":"` + full.Model + `","fn":"` + full.Fn + `","elem":"param0","k":3,"fast":true,"preds":[{"text":"older fast"}]}` + "\n")
	enc.Encode(f32)
	if err := os.WriteFile(path, log.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	c := newLRUCache(16)
	loaded, skipped, err := loadCacheFile(path, c)
	if err != nil {
		t.Fatal(err)
	}
	if loaded != 2 || skipped != 2 {
		t.Fatalf("loaded=%d skipped=%d, want 2 and 2", loaded, skipped)
	}
	for _, e := range c.entries() {
		if e.key.engine != "" && e.key.engine != "f32" {
			t.Errorf("replayed an entry under unservable engine %q", e.key.engine)
		}
	}

	snap := filepath.Join(dir, "snap.jsonl")
	if n, err := snapshotTo(snap, c); err != nil || n != 2 {
		t.Fatalf("snapshot: n=%d err=%v", n, err)
	}
	b, _ := os.ReadFile(snap)
	if bytes.Contains(b, []byte("fast")) {
		t.Errorf("snapshot still carries a fast-tier entry:\n%s", b)
	}
}

// TestCacheLogParentFormatReplay replays a log written before every
// model had its own f32 engine, in that writer's record layout. Entries
// of an f64 primary and of a quantized primary keep their keys and hit.
// Entries an f32 sibling wrote under its own fingerprint are never
// reached: precision=f32 on the f64 model misses once, then hits the
// entries its f32 engine wrote. Shutdown's compaction drops the
// sibling's records, since no registered model has their fingerprint.
func TestCacheLogParentFormatReplay(t *testing.T) {
	pred, bin := testPredictor(t)
	q8, err := core.QuantizePredictor(pred, quant.Int8)
	if err != nil {
		t.Fatal(err)
	}
	fingerprint := func(p *core.Predictor) string {
		t.Helper()
		fp, err := core.FingerprintPredictor(p)
		if err != nil {
			t.Fatal(err)
		}
		return hex.EncodeToString(fp[:])
	}
	ld, err := ingest.Load(bin)
	if err != nil {
		t.Fatal(err)
	}
	fi, ok := ld.Lookup("first")
	if !ok {
		t.Fatal("test binary has no function first")
	}
	fn := &ld.Funcs[fi]
	fh := funcHash(ld.Decoded.Module, fn.Index)
	var log strings.Builder
	for _, el := range fn.Elements {
		for _, r := range []struct{ model, engine, text string }{
			{fingerprint(pred), "", "logged f64"},
			{fingerprint(testF32Resident(t)), `,"engine":"f32"`, "logged sibling"},
			{fingerprint(q8), "", "logged q8"},
		} {
			fmt.Fprintf(&log, `{"model":%q,"fn":%q,"elem":%q,"k":3%s,"preds":[{"tokens":[%q],"text":%q}]}`+"\n",
				r.model, hex.EncodeToString(fh[:]), el.Name, r.engine, r.text, r.text)
		}
	}
	path := filepath.Join(t.TempDir(), "cache.jsonl")
	if err := os.WriteFile(path, []byte(log.String()), 0o644); err != nil {
		t.Fatal(err)
	}

	s, err := New(pred, Config{CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if got, want := s.met.cacheLoaded.Value(), int64(3*len(fn.Elements)); got != want {
		t.Fatalf("replayed %d entries, want %d", got, want)
	}
	if err := s.RegisterModel("q8", q8, ModelSource{}); err != nil {
		t.Fatal(err)
	}
	check := func(query string, wantHits int, wantText string) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/v1/predict?func=first&k=3&"+query, bytes.NewReader(bin))
		req.Header.Set("Content-Type", "application/wasm")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", query, rec.Code, rec.Body.String())
		}
		pr := decodeResponse(t, rec.Body.Bytes())
		if pr.CacheHits != wantHits {
			t.Errorf("%s: cache_hits = %d, want %d", query, pr.CacheHits, wantHits)
		}
		for name, ps := range pr.Functions[0].Elements {
			if got := ps[0].Text; (wantText != "" && got != wantText) || got == "logged sibling" {
				t.Errorf("%s: %s answered %q, want %q", query, name, got, wantText)
			}
		}
	}
	all := len(fn.Elements)
	check("precision=f64", all, "logged f64")
	check("model=q8", all, "logged q8")
	check("model=q8&precision=f32", all, "logged q8")
	check("precision=f32", 0, "")
	check("precision=f32", all, "")

	// The snapshot is the cache minus the sibling's records, in LRU
	// order: the 2*all logged records a model can reach plus the all f32
	// entries decoded above.
	var want bytes.Buffer
	enc := json.NewEncoder(&want)
	for _, e := range s.cache.entries() {
		if e.val[0].Text != "logged sibling" {
			enc.Encode(recordOf(e.key, e.val))
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	snap, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(snap, want.Bytes()) {
		t.Errorf("snapshot:\n%s\nwant:\n%s", snap, want.Bytes())
	}
	for text, n := range map[string]int{"logged f64": all, "logged q8": all, "logged sibling": 0} {
		if got := strings.Count(string(snap), `"text":"`+text+`"`); got != n {
			t.Errorf("snapshot holds %d %q records, want %d", got, text, n)
		}
	}
	if got := strings.Count(string(snap), "\n"); got != 3*all {
		t.Errorf("snapshot holds %d records, want %d", got, 3*all)
	}
}

// TestServerWarmStart is the end-to-end persistence property: a server
// with a CachePath answers, shuts down (compacting the log), and a fresh
// server over the same path answers the same request entirely from the
// replayed cache.
func TestServerWarmStart(t *testing.T) {
	pred, bin := testPredictor(t)
	path := filepath.Join(t.TempDir(), "cache.jsonl")

	post := func(s *Server) PredictResponse {
		req := httptest.NewRequest(http.MethodPost, "/v1/predict?func=first", bytes.NewReader(bin))
		req.Header.Set("Content-Type", "application/wasm")
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, req)
		if rec.Code != http.StatusOK {
			t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
		}
		return decodeResponse(t, rec.Body.Bytes())
	}

	s1, err := New(pred, Config{CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	cold := post(s1)
	if cold.CacheHits != 0 {
		t.Errorf("cold start: cache_hits = %d, want 0", cold.CacheHits)
	}
	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := New(pred, Config{CachePath: path})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if got := s2.met.cacheLoaded.Value(); got == 0 {
		t.Error("warm start replayed 0 entries")
	}
	warm := post(s2)
	wantElems := len(warm.Functions[0].Elements)
	if warm.CacheHits != wantElems {
		t.Errorf("warm start: cache_hits = %d, want %d (all elements replayed)", warm.CacheHits, wantElems)
	}
	// Warm answers must be identical to cold ones.
	if fmt.Sprint(cold.Functions) != fmt.Sprint(warm.Functions) {
		t.Error("warm-start predictions differ from the run that wrote the cache")
	}
}
