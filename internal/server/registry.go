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
	// F32Path is a quantized predictor file loaded straight into float32
	// storage and served to precision=f32 requests alongside this model.
	F32Path string `json:"f32_path,omitempty"`
	// F32Quantize, when non-empty ("int8" or "f32") and F32Path is unset,
	// derives the f32 sibling by round-tripping the loaded model through
	// that quantization mode in memory, landing the weights on the f32
	// engine.
	F32Quantize string `json:"f32_quantize,omitempty"`
}

// engineSet is one loaded version of one named model: the primary
// engine, its optional f32 sibling, and the refcount machinery the
// hot-swap drain rides on.
type engineSet struct {
	name    string
	version uint64
	src     ModelSource
	full    engine
	f32     *engine
	pm      *modelMetrics

	refs    atomic.Int64
	retired atomic.Bool
	drained chan struct{} // buffered 1: signaled on refs 0-transition after retirement
}

// f32Engine returns the engine and cache tier precision=f32 requests
// decode on: the f32 sibling, or else the primary itself when it already
// decodes on f32 (a quantized file). nil means the model has neither.
func (es *engineSet) f32Engine() (*engine, string) {
	switch {
	case es.f32 != nil:
		return es.f32, "f32"
	case es.full.precision == "f32":
		return &es.full, ""
	}
	return nil, ""
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
	for _, e := range []*engine{&es.full, es.f32} {
		if e == nil {
			continue
		}
		if e.paramBatch != nil {
			e.paramBatch.close()
		}
		if e.returnBatch != nil {
			e.returnBatch.close()
		}
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

// newEngineSet wires one loaded model (and an optional f32 sibling) with
// batchers, fingerprints, and the entry's metrics.
func (s *Server) newEngineSet(name string, pred, f32Pred *core.Predictor, src ModelSource, pm *modelMetrics) (*engineSet, error) {
	if pred == nil || (pred.Param == nil && pred.Return == nil) {
		return nil, fmt.Errorf("server: model %q has no task models", name)
	}
	es := &engineSet{name: name, src: src, pm: pm, drained: make(chan struct{}, 1)}
	var err error
	if es.full, err = s.newEngine(pred); err != nil {
		return nil, fmt.Errorf("server: model %q: %w", name, err)
	}
	if f32Pred != nil {
		if f32Pred.Param == nil && f32Pred.Return == nil {
			return nil, fmt.Errorf("server: model %q: f32 predictor has no task models", name)
		}
		fe, err := s.newEngine(f32Pred)
		if err != nil {
			return nil, fmt.Errorf("server: model %q f32 sibling: %w", name, err)
		}
		es.f32 = &fe
	}
	return es, nil
}

// RegisterModel installs (or, if the name exists, hot-swaps) a loaded
// model under a name. The swap is zero-downtime: requests arriving after
// the atomic pointer store decode on the new engines while the old
// version's in-flight decodes drain to completion; only then are its
// dispatchers stopped and the model released. src records how to reload
// the name from disk (zero value: not reloadable).
func (s *Server) RegisterModel(name string, pred, f32Pred *core.Predictor, src ModelSource) error {
	if name == "" {
		return errors.New("server: empty model name")
	}
	s.reg.mu.Lock()
	e := s.reg.entries[name]
	if e == nil {
		e = &modelEntry{name: name, pm: s.met.forModel(name)}
		s.reg.entries[name] = e
	}
	s.reg.mu.Unlock()

	es, err := s.newEngineSet(name, pred, f32Pred, src, e.pm)
	if err != nil {
		return err
	}
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
// primary engine. The precision=f32 sibling comes from src.F32Path, or
// from an in-memory quantization when src.F32Quantize is set.
func (s *Server) LoadModel(name string, src ModelSource) error {
	if src.Path == "" {
		return fmt.Errorf("server: model %q: no path to load from", name)
	}
	pred, err := core.LoadPredictorAuto(src.Path)
	if err != nil {
		return fmt.Errorf("server: load model %q: %w", name, err)
	}
	var f32Pred *core.Predictor
	switch {
	case src.F32Path != "":
		if f32Pred, err = core.LoadQuantizedPredictor(src.F32Path); err != nil {
			return fmt.Errorf("server: load model %q f32 sibling: %w", name, err)
		}
	case src.F32Quantize != "":
		mode, err := quant.ParseMode(src.F32Quantize)
		if err != nil {
			return fmt.Errorf("server: model %q: %w", name, err)
		}
		if f32Pred, err = core.QuantizePredictor(pred, mode); err != nil {
			return fmt.Errorf("server: quantize model %q for f32: %w", name, err)
		}
	}
	return s.RegisterModel(name, pred, f32Pred, src)
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
	// Fingerprint is the hex content hash of the primary engine's
	// predictor — the namespace its cache entries live under.
	Fingerprint string `json:"fingerprint"`
	// F32 reports whether the model accepts precision=f32: it has an f32
	// sibling engine, or its primary decodes on f32.
	F32    bool        `json:"f32"`
	Source ModelSource `json:"source,omitempty"`
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
		f32, _ := es.f32Engine()
		out = append(out, ModelStatus{
			Name:        name,
			Default:     name == s.reg.defName,
			Version:     es.version,
			Fingerprint: fmt.Sprintf("%x", es.full.fp),
			F32:         f32 != nil,
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
