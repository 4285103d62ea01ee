// Package server turns trained core.Predictors into a long-lived,
// concurrent type-prediction service: an HTTP/JSON API over a bounded
// worker pool, a multi-model registry with zero-downtime hot swap, a
// disk-backed LRU prediction cache keyed by (model, function) content
// hashes, and a plain-text metrics endpoint. This is the process boundary
// the paper's downstream users (reverse-engineering pipelines,
// decompilers) integrate against.
//
// Endpoints:
//
//	POST /v1/predict                  wasm binary (raw body, or base64 in a
//	                                  JSON envelope) → ranked type
//	                                  predictions, served by the default model
//	POST /v1/models/{model}/predict   same, served by a named model
//	GET  /v1/models                   registry listing (versions, fingerprints)
//	PUT  /v1/models/{model}           load or hot-swap a model from disk
//	DELETE /v1/models/{model}         unregister a model
//	GET  /healthz                     liveness + readiness
//	GET  /metrics                     request counts, latency histograms,
//	                                  cache hits, per-model series
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/wasm"
)

// Config tunes the service. The zero value of any field selects the
// default noted on it.
type Config struct {
	// Addr is the listen address for ListenAndServe (default ":8642").
	Addr string
	// Workers bounds concurrent model inference (default GOMAXPROCS).
	Workers int
	// QueueDepth bounds prediction jobs waiting for a worker; beyond it
	// requests are rejected with 503 (default 4×Workers).
	QueueDepth int
	// MaxBodyBytes rejects larger uploads with 413 (default 8 MiB).
	MaxBodyBytes int64
	// RequestTimeout bounds one request's wait+inference time; on expiry
	// the request gets 504 (default 60s).
	RequestTimeout time.Duration
	// CacheSize is the LRU capacity in cached elements; < 0 disables
	// caching (default 4096).
	CacheSize int
	// CachePath enables disk persistence for the prediction cache: the
	// log at this path is replayed at startup (a warm start) and every
	// cached decode is appended to it; graceful shutdown compacts it to a
	// snapshot of the live entries. Empty disables persistence.
	CachePath string
	// MaxK caps the per-element beam width a client may request
	// (default 10).
	MaxK int
	// DefaultK is the beam width when the client does not pass k
	// (default 5).
	DefaultK int
	// BatchSize caps how many concurrent per-element queries the dynamic
	// batcher coalesces into one batched beam decode (default 8). A value
	// of 1 or below disables batching; queries then decode individually
	// on the worker pool.
	BatchSize int
	// BatchWait bounds how long the batcher holds a non-full batch open
	// for stragglers once at least one query is in hand (default 2ms). A
	// lone in-flight query never waits: it dispatches immediately.
	BatchWait time.Duration
	// DefaultModel is the registry name given to the predictor passed to
	// New, and the model /v1/predict routes to (default "default").
	DefaultModel string
	// F32Pred is an optional second predictor pinned to the f32 inference
	// engine (core.LoadQuantizedPredictor), serving requests that opt in
	// with precision=f32. It becomes the default model's f32 sibling,
	// with its own dynamic batchers and cache entries (the two engines'
	// predictions may differ). Nil means f32 requests to the default
	// model are rejected.
	F32Pred *core.Predictor
}

func (c Config) withDefaults() Config {
	if c.Addr == "" {
		c.Addr = ":8642"
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 4 * c.Workers
	}
	if c.MaxBodyBytes <= 0 {
		c.MaxBodyBytes = 8 << 20
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.CacheSize == 0 {
		c.CacheSize = 4096
	}
	if c.MaxK <= 0 {
		c.MaxK = 10
	}
	if c.DefaultK <= 0 {
		c.DefaultK = 5
	}
	if c.BatchSize == 0 {
		c.BatchSize = 8
	}
	if c.BatchWait <= 0 {
		c.BatchWait = 2 * time.Millisecond
	}
	if c.DefaultModel == "" {
		c.DefaultModel = "default"
	}
	return c
}

// modelMetrics is one model name's labeled series (label model="name").
// The set survives hot swaps, so a name's counters are continuous across
// versions; version and swaps make the swap history visible.
type modelMetrics struct {
	requests    *metrics.Counter
	predictions *metrics.Counter
	cacheHits   *metrics.Counter
	cacheMisses *metrics.Counter
	inference   *metrics.Histogram
	swaps       *metrics.Counter
	version     *metrics.Gauge
}

// serverMetrics is the service's operational instrumentation, exposed at
// /metrics.
type serverMetrics struct {
	registry      *metrics.Registry
	requests      *metrics.Counter
	errors        *metrics.Counter
	rejected      *metrics.Counter
	timeouts      *metrics.Counter
	predictions   *metrics.Counter
	cacheHits     *metrics.Counter
	cacheMisses   *metrics.Counter
	swaps         *metrics.Counter
	persistErrors *metrics.Counter
	inFlight      *metrics.Gauge
	cacheSize     *metrics.Gauge
	cacheLoaded   *metrics.Gauge
	latency       *metrics.Histogram
	inference     *metrics.Histogram
	batchSize     *metrics.Histogram
	batchWait     *metrics.Histogram

	mu       sync.Mutex
	perModel map[string]*modelMetrics
}

func newServerMetrics() *serverMetrics {
	r := metrics.NewRegistry()
	return &serverMetrics{
		registry:      r,
		requests:      r.NewCounter("snowwhite_requests_total", "Predict requests received."),
		errors:        r.NewCounter("snowwhite_request_errors_total", "Predict requests answered with a 4xx/5xx status."),
		rejected:      r.NewCounter("snowwhite_requests_rejected_total", "Predict requests rejected because the worker queue was full."),
		timeouts:      r.NewCounter("snowwhite_request_timeouts_total", "Predict requests that exceeded the request timeout."),
		predictions:   r.NewCounter("snowwhite_predictions_total", "Signature elements predicted (model inference runs)."),
		cacheHits:     r.NewCounter("snowwhite_cache_hits_total", "Prediction cache hits."),
		cacheMisses:   r.NewCounter("snowwhite_cache_misses_total", "Prediction cache misses."),
		swaps:         r.NewCounter("snowwhite_model_hot_swaps_total", "Zero-downtime model hot swaps performed."),
		persistErrors: r.NewCounter("snowwhite_cache_persist_errors_total", "Cache log appends that failed (cache degrades to in-memory)."),
		inFlight:      r.NewGauge("snowwhite_in_flight_requests", "Predict requests currently being handled."),
		cacheSize:     r.NewGauge("snowwhite_cache_entries", "Prediction cache occupancy."),
		cacheLoaded:   r.NewGauge("snowwhite_cache_loaded_entries", "Cache entries replayed from the persistence log at startup."),
		latency:       r.NewHistogram("snowwhite_request_seconds", "Predict request latency in seconds.", nil),
		inference:     r.NewHistogram("snowwhite_inference_seconds", "Per-element beam-search latency in seconds (cache misses only).", nil),
		batchSize:     r.NewHistogram("snowwhite_batch_size", "Queries coalesced per batched beam decode.", []float64{1, 2, 4, 8, 16, 32}),
		batchWait:     r.NewHistogram("snowwhite_batch_queue_seconds", "Time a query waited on the batching queue before its decode started.", nil),
		perModel:      map[string]*modelMetrics{},
	}
}

// forModel returns (creating on first use) the labeled series for one
// model name. Idempotent: a name re-registered after removal, or
// hot-swapped, keeps its series.
func (sm *serverMetrics) forModel(name string) *modelMetrics {
	sm.mu.Lock()
	defer sm.mu.Unlock()
	if pm, ok := sm.perModel[name]; ok {
		return pm
	}
	l := metrics.Labels{"model": name}
	pm := &modelMetrics{
		requests:    sm.registry.NewCounterLabeled("snowwhite_model_requests_total", "Predict requests routed to a model.", l),
		predictions: sm.registry.NewCounterLabeled("snowwhite_model_predictions_total", "Signature elements predicted by a model.", l),
		cacheHits:   sm.registry.NewCounterLabeled("snowwhite_model_cache_hits_total", "Prediction cache hits for a model's entries.", l),
		cacheMisses: sm.registry.NewCounterLabeled("snowwhite_model_cache_misses_total", "Prediction cache misses for a model's entries.", l),
		inference:   sm.registry.NewHistogramLabeled("snowwhite_model_inference_seconds", "Per-element beam-search latency per model.", nil, l),
		swaps:       sm.registry.NewCounterLabeled("snowwhite_model_swaps_total", "Hot swaps of a model name.", l),
		version:     sm.registry.NewGaugeLabeled("snowwhite_model_version", "Currently served version ordinal of a model name.", l),
	}
	sm.perModel[name] = pm
	return pm
}

// engine is one predictor with its dynamic batchers and content
// fingerprint — the unit the cache namespaces entries by. Each registered
// model runs a primary engine always, plus an optional f32 engine for
// requests that opt in.
type engine struct {
	pred *core.Predictor
	// precision is the arithmetic width the predictor decodes at ("f64"
	// or "f32", seq2seq.Model.Precision), reported in every response.
	precision string
	// fp is the content hash of the predictor (core.FingerprintPredictor):
	// the cache namespace its predictions live under, stable across
	// restarts of the same weights.
	fp [32]byte
	// paramBatch/returnBatch coalesce concurrent queries per model; nil
	// when batching is disabled or the model is absent.
	paramBatch  *batcher
	returnBatch *batcher
}

// Server serves type predictions from a registry of loaded predictors.
type Server struct {
	cfg   Config
	cache *lruCache
	clog  *cacheLog
	met   *serverMetrics
	mux   *http.ServeMux

	jobs     chan func()
	workerWG sync.WaitGroup
	stopPool sync.Once

	reg         registry
	persistOnce sync.Once // guards the shutdown snapshot+log close

	httpMu  sync.Mutex
	httpSrv *http.Server
}

// newEngine wires one predictor with its fingerprint and batchers.
func (s *Server) newEngine(pred *core.Predictor) (engine, error) {
	fp, err := core.FingerprintPredictor(pred)
	if err != nil {
		return engine{}, fmt.Errorf("fingerprint: %w", err)
	}
	e := engine{pred: pred, fp: fp, precision: predictorPrecision(pred)}
	if s.cfg.BatchSize > 1 {
		if pred.Param != nil {
			e.paramBatch = newBatcher(pred.Param, s.cfg.BatchSize, s.cfg.BatchWait, s.cfg.QueueDepth, s.met.batchSize, s.met.batchWait)
		}
		if pred.Return != nil {
			e.returnBatch = newBatcher(pred.Return, s.cfg.BatchSize, s.cfg.BatchWait, s.cfg.QueueDepth, s.met.batchSize, s.met.batchWait)
		}
	}
	return e, nil
}

// predictorPrecision reports the arithmetic width a predictor's task
// models decode at; both models of one predictor share it.
func predictorPrecision(pred *core.Predictor) string {
	if pred.Param != nil {
		return pred.Param.Model.Precision()
	}
	return pred.Return.Model.Precision()
}

// New builds a Server around a loaded predictor — registered under
// cfg.DefaultModel, with cfg.F32Pred as its f32 sibling — and
// starts the worker pool. Further models can be added with RegisterModel
// or LoadModel. Callers must eventually call Shutdown (or Close) to stop
// the workers.
func New(pred *core.Predictor, cfg Config) (*Server, error) {
	return NewWithSource(pred, cfg, ModelSource{})
}

// NewWithSource is New recording where the default model was loaded from,
// so SIGHUP/admin reloads can re-read it from disk.
func NewWithSource(pred *core.Predictor, cfg Config, src ModelSource) (*Server, error) {
	cfg = cfg.withDefaults()
	s := &Server{
		cfg:   cfg,
		cache: newLRUCache(cfg.CacheSize),
		met:   newServerMetrics(),
		jobs:  make(chan func(), cfg.QueueDepth),
	}
	s.reg.entries = map[string]*modelEntry{}
	s.reg.defName = cfg.DefaultModel
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/predict", s.handlePredict)
	s.mux.HandleFunc("POST /v1/models/{model}/predict", s.handlePredict)
	s.mux.HandleFunc("GET /v1/models", s.handleModels)
	s.mux.HandleFunc("PUT /v1/models/{model}", s.handleModelPut)
	s.mux.HandleFunc("DELETE /v1/models/{model}", s.handleModelDelete)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	if cfg.CachePath != "" && s.cache != nil {
		loaded, _, err := loadCacheFile(cfg.CachePath, s.cache)
		if err != nil {
			return nil, err
		}
		s.met.cacheLoaded.Set(int64(loaded))
		s.met.cacheSize.Set(int64(s.cache.len()))
		if s.clog, err = openCacheLog(cfg.CachePath); err != nil {
			return nil, err
		}
	}
	if err := s.RegisterModel(cfg.DefaultModel, pred, cfg.F32Pred, src); err != nil {
		s.clog.close()
		return nil, err
	}
	s.workerWG.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s, nil
}

// Handler returns the service's HTTP handler (for embedding or tests).
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) worker() {
	defer s.workerWG.Done()
	for job := range s.jobs {
		job()
	}
}

// errQueueFull reports a full worker queue (mapped to 503).
var errQueueFull = errors.New("server: worker queue full")

// submit enqueues fn on the worker pool and waits for it to finish or for
// ctx to expire. A job whose context has already expired when a worker
// picks it up is skipped, so abandoned requests never burn inference time.
func (s *Server) submit(ctx context.Context, fn func()) error {
	done := make(chan struct{})
	job := func() {
		defer close(done)
		if ctx.Err() != nil {
			return
		}
		fn()
	}
	select {
	case s.jobs <- job:
	default:
		return errQueueFull
	}
	select {
	case <-done:
		if err := ctx.Err(); err != nil {
			// The worker skipped the job because we timed out first.
			return err
		}
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// cachePut stores a decoded prediction and appends it to the persistence
// log. Log I/O failures degrade to in-memory-only caching (counted, never
// surfaced to the request).
func (s *Server) cachePut(key cacheKey, preds []core.TypePrediction) {
	s.cache.put(key, preds)
	if err := s.clog.append(key, preds); err != nil {
		s.met.persistErrors.Inc()
	}
}

// elemQuery is one cache-missed signature element awaiting a decode.
type elemQuery struct {
	key  cacheKey
	name string // "param0".."paramN" or "return"
	src  []string
	k    int
}

// runQueries decodes a function's cache-missed queries against one
// model. With batching enabled the queries join the model's dynamic
// batcher, coalescing with concurrent requests into one batched beam
// decode; otherwise they decode directly (still batched with each other,
// and checking ctx between decoder steps so an expired request stops
// burning inference time mid-decode). Results land in out and the cache.
func (s *Server) runQueries(ctx context.Context, tr *core.Trained, b *batcher, qs []elemQuery, out map[string][]core.TypePrediction, pm *modelMetrics) error {
	if len(qs) == 0 {
		return nil
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	srcs := make([][]string, len(qs))
	ks := make([]int, len(qs))
	for i, q := range qs {
		srcs[i] = q.src
		ks[i] = q.k
	}
	start := time.Now()
	var preds [][]core.TypePrediction
	var err error
	if b != nil {
		preds, err = b.predictMany(ctx, srcs, ks)
	} else {
		preds, err = tr.PredictTypedCtx(ctx, srcs, ks)
	}
	if err != nil {
		return err
	}
	perElem := time.Since(start).Seconds() / float64(len(qs))
	for i, q := range qs {
		s.met.inference.Observe(perElem)
		s.met.predictions.Inc()
		pm.inference.Observe(perElem)
		pm.predictions.Inc()
		s.cachePut(q.key, preds[i])
		out[q.name] = preds[i]
	}
	s.met.cacheSize.Set(int64(s.cache.len()))
	return nil
}

// predictFunc predicts every signature element of one module-defined
// function on the given engine in two phases: consult the cache and
// extract inputs for every element first, then decode all misses
// together (through the engine's dynamic batcher when enabled, where they
// coalesce with other requests' queries into one batched beam decode).
// Cache keys carry the engine's content fingerprint plus the engine tier
// ("" primary, "f32"), so models, versions, and precision modes never
// answer from each other's entries.
func (s *Server) predictFunc(ctx context.Context, pm *modelMetrics, e *engine, tier string, m *wasm.Module, fn *ingest.Func, k int) (map[string][]core.TypePrediction, int, error) {
	fnHash := funcHash(m, fn.Index)
	out := make(map[string][]core.TypePrediction, len(fn.Elements))
	hits := 0
	var paramQs, returnQs []elemQuery
	for _, el := range fn.Elements {
		if e.pred.ModelFor(el) == nil {
			continue
		}
		key := cacheKey{model: e.fp, fn: fnHash, elem: el.Name, k: k, engine: tier}
		if preds, ok := s.cache.get(key); ok {
			s.met.cacheHits.Inc()
			pm.cacheHits.Inc()
			out[el.Name] = preds
			hits++
			continue
		}
		s.met.cacheMisses.Inc()
		pm.cacheMisses.Inc()
		q := elemQuery{key: key, name: el.Name, src: e.pred.Input(m, fn.Index, el), k: k}
		if el.IsReturn() {
			returnQs = append(returnQs, q)
		} else {
			paramQs = append(paramQs, q)
		}
	}
	if err := s.runQueries(ctx, e.pred.Param, e.paramBatch, paramQs, out, pm); err != nil {
		return nil, hits, err
	}
	if err := s.runQueries(ctx, e.pred.Return, e.returnBatch, returnQs, out, pm); err != nil {
		return nil, hits, err
	}
	return out, hits, nil
}

// ListenAndServe runs the HTTP service on cfg.Addr until Shutdown. It
// returns http.ErrServerClosed after a clean shutdown, like net/http.
func (s *Server) ListenAndServe() error {
	srv := &http.Server{
		Addr:              s.cfg.Addr,
		Handler:           s.mux,
		ReadHeaderTimeout: 10 * time.Second,
	}
	s.httpMu.Lock()
	s.httpSrv = srv
	s.httpMu.Unlock()
	return srv.ListenAndServe()
}

// Shutdown gracefully stops the service: it stops accepting connections,
// waits (up to ctx) for in-flight requests to finish, drains and stops
// the worker pool, then drains every registered engine set (stopping its
// batching dispatchers — the workers are the batchers' only producers, so
// every coalesced query still in flight completes first), and finally
// compacts the prediction cache to its on-disk snapshot.
func (s *Server) Shutdown(ctx context.Context) error {
	var err error
	s.httpMu.Lock()
	srv := s.httpSrv
	s.httpMu.Unlock()
	if srv != nil {
		err = srv.Shutdown(ctx)
	}
	s.stopPool.Do(func() {
		close(s.jobs)
	})
	s.workerWG.Wait()
	for _, name := range s.reg.names() {
		if e := s.reg.lookup(name); e != nil {
			if es := e.cur.Load(); es != nil {
				es.drain()
			}
		}
	}
	s.persistOnce.Do(func() {
		if cerr := s.clog.close(); err == nil {
			err = cerr
		}
		if s.cfg.CachePath != "" && s.cache != nil {
			if _, serr := snapshotTo(s.cfg.CachePath, s.cache); err == nil {
				err = serr
			}
		}
	})
	return err
}

// Close is Shutdown with a short drain deadline, for tests and defers.
func (s *Server) Close() error {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	return s.Shutdown(ctx)
}
