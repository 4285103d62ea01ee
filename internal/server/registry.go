package server

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"repro/internal/core"
	"repro/internal/quant"
)

// Multi-model registry. The server maps model names to independently
// loaded engines; every name can be hot-swapped to a new model version
// with zero downtime: requests route through an atomic pointer, so new
// arrivals see the new engine immediately, while the swap drains the old
// engine's in-flight decodes (refcount protocol below) before closing
// its dispatchers and releasing the model.
//
// Drain protocol: each engineSet carries an acquisition refcount.
// Request handlers acquire (refs++, then re-check retirement) before
// touching the engine and release when the whole request is done — the
// engine's batchers only ever carry queries from ref holders. A swap
// stores the new engineSet in the entry's atomic pointer, marks the old
// one retired, and waits for its refcount to hit zero; an acquirer that
// loses the race (refs++ after retirement) backs out and retries on the
// pointer, landing on the successor. Sequential consistency of the
// atomics makes the handshake airtight: an acquirer that observed
// retired == false incremented refs before the swapper's retirement
// store, so the swapper's drain wait cannot miss it.

// ModelSource records where a model's bytes came from, so SIGHUP (or the
// admin API) can reload the same name from disk. A model trained
// in-process has no Path and is skipped by Reload.
type ModelSource struct {
	// Path is the predictor file (either on-disk format; a quantized
	// file serves on the f32 engine).
	Path string `json:"path,omitempty"`
}

// engineSet is one loaded version of one named model: its two engines
// and the refcount machinery the hot-swap drain rides on.
type engineSet struct {
	name    string
	version uint64
	src     ModelSource
	// full answers plain and precision=f64 requests; f32 answers
	// precision=f32. f32 is a float32 copy of full's weights, or full
	// itself when full already decodes on f32 (a quantized file).
	full engine
	f32  *engine
	pm   *modelMetrics

	refs    atomic.Int64
	retired atomic.Bool
	drained chan struct{} // buffered 1: signaled on refs 0-transition after retirement
}

// release undoes one acquire; the last release of a retired set wakes
// its drainer.
func (es *engineSet) release() {
	if es.refs.Add(-1) == 0 && es.retired.Load() {
		select {
		case es.drained <- struct{}{}:
		default:
		}
	}
}

// drain retires the set and blocks until every acquisition has been
// released, then stops its dispatchers. On return no request references
// the engines and no query of theirs is in flight.
func (es *engineSet) drain() {
	es.retired.Store(true)
	for es.refs.Load() != 0 {
		<-es.drained
	}
	es.full.close()
	if es.f32 != &es.full {
		es.f32.close()
	}
}

// modelEntry is one registered model name: the swap pointer plus the
// name's stable per-model metrics (which survive swaps).
type modelEntry struct {
	name  string
	cur   atomic.Pointer[engineSet]
	pm    *modelMetrics
	swaps atomic.Uint64 // version counter; engineSet.version = swap ordinal
}

// registry maps model names to entries. The map itself is mutated only
// by registration/removal (RWMutex); per-name swaps go through the
// entry's atomic pointer without touching the map.
type registry struct {
	mu      sync.RWMutex
	entries map[string]*modelEntry
	defName string
}

var errModelNotFound = errors.New("server: model not found")

// lookup resolves a name ("" = the default model) to its entry.
func (r *registry) lookup(name string) *modelEntry {
	r.mu.RLock()
	defer r.mu.RUnlock()
	if name == "" {
		name = r.defName
	}
	return r.entries[name]
}

// names returns the registered model names, sorted.
func (r *registry) names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.entries))
	for n := range r.entries {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// acquireModel resolves a model name and takes a drain reference on its
// current engine set. Callers must release() the result exactly once.
func (s *Server) acquireModel(name string) (*engineSet, error) {
	e := s.reg.lookup(name)
	if e == nil {
		return nil, fmt.Errorf("%w: %q", errModelNotFound, name)
	}
	for {
		es := e.cur.Load()
		if es == nil {
			// Deleted between lookup and load.
			return nil, fmt.Errorf("%w: %q", errModelNotFound, name)
		}
		es.refs.Add(1)
		if !es.retired.Load() && e.cur.Load() == es {
			return es, nil
		}
		// Lost a race with a swap or delete: back out and retry on
		// whatever the pointer holds now. A set retired with the pointer
		// unchanged means the server itself is draining (Shutdown retires
		// in place) — fail rather than spin.
		cur := e.cur.Load()
		es.release()
		if cur == es {
			return nil, fmt.Errorf("server: model %q is shutting down", name)
		}
	}
}

// newEngineSet wires one loaded model with its engines and batchers;
// RegisterModel attaches the name's metrics. A model that decodes on f64 gets an f32 engine of
// its own: the f32 quantization of its weights (float32(w) per weight,
// held in float32 storage). Each registration quantizes afresh, so two
// versions of one in-memory predictor never share float32 tensors. The
// f32 engine keeps the primary's fingerprint; its cache entries stay
// apart under the engine tier "f32".
func (s *Server) newEngineSet(name string, pred *core.Predictor, src ModelSource) (*engineSet, error) {
	if pred == nil || (pred.Param == nil && pred.Return == nil) {
		return nil, fmt.Errorf("server: model %q has no task models", name)
	}
	fp, err := core.FingerprintPredictor(pred)
	if err != nil {
		return nil, fmt.Errorf("server: model %q: fingerprint: %w", name, err)
	}
	var f32Pred *core.Predictor
	if predictorPrecision(pred) != "f32" {
		if f32Pred, err = core.QuantizePredictor(pred, quant.F32); err != nil {
			return nil, fmt.Errorf("server: model %q: f32 engine: %w", name, err)
		}
	}
	es := &engineSet{name: name, src: src, drained: make(chan struct{}, 1)}
	es.full = s.newEngine(pred, fp, "")
	es.f32 = &es.full
	if f32Pred != nil {
		fe := s.newEngine(f32Pred, fp, "f32")
		es.f32 = &fe
	}
	return es, nil
}

// RegisterModel installs (or, if the name exists, hot-swaps) a loaded
// model under a name. The swap is zero-downtime: requests arriving after
// the atomic pointer store decode on the new engines while the old
// version's in-flight decodes drain to completion; only then are its
// dispatchers stopped and the model released. src records how to reload
// the name from disk (zero value: not reloadable). The engines are built
// before the name is looked up, so a registration that fails leaves the
// registry as it was: a new name is not added, an existing one keeps
// serving its current version.
func (s *Server) RegisterModel(name string, pred *core.Predictor, src ModelSource) error {
	if name == "" {
		return errors.New("server: empty model name")
	}
	es, err := s.newEngineSet(name, pred, src)
	if err != nil {
		return err
	}
	s.reg.mu.Lock()
	e := s.reg.entries[name]
	if e == nil {
		e = &modelEntry{name: name, pm: s.met.forModel(name)}
		s.reg.entries[name] = e
	}
	s.reg.mu.Unlock()

	es.pm = e.pm
	es.version = e.swaps.Add(1)
	old := e.cur.Swap(es)
	e.pm.version.Set(int64(es.version))
	if old != nil {
		e.pm.swaps.Inc()
		s.met.swaps.Inc()
		old.drain()
	}
	return nil
}

// LoadModel loads a model from disk per src and registers (or hot-swaps)
// it under name. Either on-disk predictor format is accepted; quantized
// files come back on the f32 engine but still serve as the name's
// primary engine.
func (s *Server) LoadModel(name string, src ModelSource) error {
	if src.Path == "" {
		return fmt.Errorf("server: model %q: no path to load from", name)
	}
	pred, err := core.LoadPredictorAuto(src.Path)
	if err != nil {
		return fmt.Errorf("server: load model %q: %w", name, err)
	}
	return s.RegisterModel(name, pred, src)
}

// RemoveModel unregisters a name and drains its engines. The default
// model cannot be removed.
func (s *Server) RemoveModel(name string) error {
	s.reg.mu.Lock()
	if name == s.reg.defName {
		s.reg.mu.Unlock()
		return fmt.Errorf("server: cannot remove default model %q", name)
	}
	e := s.reg.entries[name]
	delete(s.reg.entries, name)
	s.reg.mu.Unlock()
	if e == nil {
		return fmt.Errorf("%w: %q", errModelNotFound, name)
	}
	if old := e.cur.Swap(nil); old != nil {
		old.drain()
	}
	return nil
}

// Reload hot-swaps every disk-backed model from its recorded source —
// the SIGHUP handler. Names without a Path (trained in-process) are
// skipped. The first error aborts the sweep but already-swapped names
// keep their new versions; a name whose reload fails keeps serving its
// old version.
func (s *Server) Reload() (reloaded []string, err error) {
	for _, name := range s.reg.names() {
		e := s.reg.lookup(name)
		if e == nil {
			continue
		}
		es := e.cur.Load()
		if es == nil || es.src.Path == "" {
			continue
		}
		if err := s.LoadModel(name, es.src); err != nil {
			return reloaded, err
		}
		reloaded = append(reloaded, name)
	}
	return reloaded, nil
}

// ModelStatus is one row of the /v1/models listing.
type ModelStatus struct {
	Name    string `json:"name"`
	Default bool   `json:"default"`
	Version uint64 `json:"version"`
	// Fingerprint is the hex content hash of the registered predictor —
	// the namespace the model's cache entries, f32 ones included, live
	// under.
	Fingerprint string      `json:"fingerprint"`
	Source      ModelSource `json:"source,omitempty"`
}

// Models lists the registered models, sorted by name.
func (s *Server) Models() []ModelStatus {
	var out []ModelStatus
	for _, name := range s.reg.names() {
		e := s.reg.lookup(name)
		if e == nil {
			continue
		}
		es := e.cur.Load()
		if es == nil {
			continue
		}
		out = append(out, ModelStatus{
			Name:        name,
			Default:     name == s.reg.defName,
			Version:     es.version,
			Fingerprint: fmt.Sprintf("%x", es.full.fp),
			Source:      es.src,
		})
	}
	return out
}

// DefaultModel returns the name /v1/predict routes to.
func (s *Server) DefaultModel() string {
	s.reg.mu.RLock()
	defer s.reg.mu.RUnlock()
	return s.reg.defName
}
