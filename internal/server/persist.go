package server

import (
	"bufio"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/core"
)

// Cache persistence: an append-only JSONL log of prediction-cache
// entries, keyed by model content hash + cacheKey. The server appends a
// record for every decode it caches and replays the log at startup, so
// restarts and fresh replicas start warm — the corpus-level dedup the
// cache already exploits (identical library functions across uploads)
// makes the warm-start hit rate directly measurable with
// `snowwhite bench-serve`.
//
// One JSON object per line; the fields mirror cacheKey plus the cached
// predictions. JSON keeps the format self-describing and tolerant: a
// line that fails to parse (a torn tail from a crash mid-append) ends
// the replay instead of poisoning it, and unknown fields from newer
// versions are ignored. Replay order is append order, so the restored
// LRU reproduces the writer's recency order; compaction (snapshotTo, run
// on graceful shutdown) rewrites the log from the live entries oldest
// first, which bounds the file at one cache's worth of records and makes
// snapshot → load → snapshot byte-identical (the verify.sh determinism
// gate). Replay keeps records of every fingerprint, because models added
// after startup (-add-model, the admin API) may own them; Shutdown drops
// the entries no registered model owns before it compacts.

// cacheRecord is one persisted cache entry.
type cacheRecord struct {
	// Model is the hex fingerprint of the predictor that produced the
	// entry (core.FingerprintPredictor).
	Model string `json:"model"`
	// Fn is the hex content hash of the function (funcHash).
	Fn   string `json:"fn"`
	Elem string `json:"elem"`
	K    int    `json:"k"`
	// Engine is the precision tier that produced the entry ("" primary,
	// "f32").
	Engine string `json:"engine,omitempty"`
	// LegacyFast is read only to recognize entries of the removed
	// fast-math tier in logs written before engine:"fast" existed; replay
	// drops them and snapshots never write it.
	LegacyFast bool `json:"fast,omitempty"`
	// Preds is the cached ranked predictions for the element.
	Preds []core.TypePrediction `json:"preds"`
}

func recordOf(key cacheKey, preds []core.TypePrediction) cacheRecord {
	return cacheRecord{
		Model:  hex.EncodeToString(key.model[:]),
		Fn:     hex.EncodeToString(key.fn[:]),
		Elem:   key.elem,
		K:      key.k,
		Engine: key.engine,
		Preds:  preds,
	}
}

// key converts a record back to its cache key; an error means the record
// is from a corrupt or foreign line, or from an engine tier no request
// can reach (the removed fast-math tier), which replay must drop rather
// than carry into every later snapshot.
func (r cacheRecord) key() (cacheKey, error) {
	var k cacheKey
	if r.Elem == "" || r.K <= 0 {
		return k, errors.New("missing elem or k")
	}
	if r.LegacyFast || (r.Engine != "" && r.Engine != "f32") {
		return k, fmt.Errorf("unservable engine tier %q", r.Engine)
	}
	if n, err := hex.Decode(k.model[:], []byte(r.Model)); err != nil || n != len(k.model) {
		return k, fmt.Errorf("bad model hash %q", r.Model)
	}
	if n, err := hex.Decode(k.fn[:], []byte(r.Fn)); err != nil || n != len(k.fn) {
		return k, fmt.Errorf("bad function hash %q", r.Fn)
	}
	k.elem, k.k, k.engine = r.Elem, r.K, r.Engine
	return k, nil
}

// cacheLog appends cache entries to the persistence file. Safe for
// concurrent use; a nil *cacheLog drops every append (persistence
// disabled).
type cacheLog struct {
	mu   sync.Mutex
	f    *os.File
	w    *bufio.Writer
	enc  *json.Encoder
	path string
}

// openCacheLog opens (creating if needed) the cache log at path for
// appending.
func openCacheLog(path string) (*cacheLog, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("server: cache log: %w", err)
	}
	w := bufio.NewWriter(f)
	return &cacheLog{f: f, w: w, enc: json.NewEncoder(w), path: path}, nil
}

// append writes one entry to the log. I/O errors are returned so the
// caller can degrade to in-memory-only caching; they never fail the
// prediction that produced the entry.
func (l *cacheLog) append(key cacheKey, preds []core.TypePrediction) error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return errors.New("server: cache log closed")
	}
	if err := l.enc.Encode(recordOf(key, preds)); err != nil {
		return err
	}
	return l.w.Flush()
}

// close flushes and closes the log file.
func (l *cacheLog) close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.w.Flush()
	if cerr := l.f.Close(); err == nil {
		err = cerr
	}
	l.f = nil
	return err
}

// loadCacheFile replays a cache log or snapshot into the cache. Records
// beyond the cache's capacity evict in replay order, exactly as live
// puts would. A missing file is an empty cache; a torn or foreign tail
// ends the replay at the last good line and reports how many lines were
// skipped.
func loadCacheFile(path string, cache *lruCache) (loaded, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return 0, 0, nil
		}
		return 0, 0, fmt.Errorf("server: cache load: %w", err)
	}
	defer f.Close()
	dec := json.NewDecoder(bufio.NewReader(f))
	for {
		var rec cacheRecord
		if err := dec.Decode(&rec); err != nil {
			if errors.Is(err, io.EOF) {
				return loaded, skipped, nil
			}
			// Torn tail (crash mid-append): everything before it loaded.
			return loaded, skipped + 1, nil
		}
		key, err := rec.key()
		if err != nil || len(rec.Preds) == 0 {
			skipped++
			continue
		}
		cache.put(key, rec.Preds)
		loaded++
	}
}

// snapshotTo compacts the cache into a fresh log at path (atomic
// temp+rename): the live entries, least recently used first, so a replay
// rebuilds this cache bit for bit and the file size is bounded by the
// cache capacity regardless of how many appends the run made. Returns
// the number of entries written.
func snapshotTo(path string, cache *lruCache) (int, error) {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".cache-snapshot-*")
	if err != nil {
		return 0, fmt.Errorf("server: cache snapshot: %w", err)
	}
	defer os.Remove(tmp.Name())
	w := bufio.NewWriter(tmp)
	enc := json.NewEncoder(w)
	entries := cache.entries()
	for _, e := range entries {
		if err := enc.Encode(recordOf(e.key, e.val)); err != nil {
			tmp.Close()
			return 0, fmt.Errorf("server: cache snapshot: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		tmp.Close()
		return 0, fmt.Errorf("server: cache snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return 0, fmt.Errorf("server: cache snapshot: %w", err)
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		return 0, fmt.Errorf("server: cache snapshot: %w", err)
	}
	return len(entries), nil
}
