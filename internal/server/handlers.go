package server

import (
	"context"
	"encoding/base64"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/ingest"
)

// predictEnvelope is the JSON request body accepted by POST /v1/predict as
// an alternative to a raw wasm body with query parameters.
type predictEnvelope struct {
	// WasmBase64 is the wasm binary, standard base64.
	WasmBase64 string `json:"wasm_base64"`
	// Func selects one function by resolved name, export name or decimal
	// index (module-defined index space); empty predicts all defined
	// functions.
	Func string `json:"func,omitempty"`
	// K is the number of ranked predictions per element (default
	// Config.DefaultK, capped at Config.MaxK).
	K int `json:"k,omitempty"`
	// Fast selected the removed fast-math engine. It is still parsed so
	// that fast=true is rejected with 400 (pointing to precision=f32)
	// instead of being silently served at full precision.
	Fast bool `json:"fast,omitempty"`
	// Precision routes the request to a precision tier: "f32" selects the
	// model's single-precision engine (float32 weights and tapes, 8-lane
	// kernels), "" or "f64" the default. Every model has an f32 engine; a
	// model whose primary already decodes on f32 (a quantized file)
	// answers every request on it.
	Precision string `json:"precision,omitempty"`
	// Model names the registry model to serve the request; empty means
	// the server's default. A {model} path segment takes precedence.
	Model string `json:"model,omitempty"`
}

// FunctionResult is the predictions for one function.
type FunctionResult struct {
	// Index is the function's index among module-defined functions.
	Index int `json:"index"`
	// Name is the function's resolved name: from the names section, an
	// export, or synthesized as "func[N]" over the full index space. The
	// server never parses DWARF, so it never reports a DWARF name.
	Name string `json:"name,omitempty"`
	// NameSource is the name's provenance: "names_section", "export" or
	// "synthesized".
	NameSource string `json:"name_source,omitempty"`
	// Elements maps "param0".."paramN" and "return" to ranked predictions;
	// empty when the module did not deliver the function's type.
	Elements map[string][]core.TypePrediction `json:"elements"`
}

// PredictResponse is the body of a successful POST /v1/predict.
type PredictResponse struct {
	Functions []FunctionResult `json:"functions"`
	// Sections lists the section diagnostics that were not ok, in the
	// ingest report's shape: the module decoded only in part. Omitted
	// for a clean binary.
	Sections []ingest.SectionReport `json:"sections,omitempty"`
	// CacheHits counts elements of this response answered from the cache.
	CacheHits int `json:"cache_hits"`
	// Precision is the arithmetic width of the engine that answered:
	// "f64", or "f32" for the single-precision engine — including a
	// model whose primary file is quantized.
	Precision string `json:"precision,omitempty"`
	// Model and Version identify the registry model (and hot-swap
	// ordinal) that served the request.
	Model   string `json:"model,omitempty"`
	Version uint64 `json:"version,omitempty"`
}

// errorResponse is the body of every non-2xx API answer.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

func (s *Server) writeError(w http.ResponseWriter, status int, format string, args ...any) {
	s.met.errors.Inc()
	writeJSON(w, status, errorResponse{Error: fmt.Sprintf(format, args...)})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":  "ok",
		"default": s.DefaultModel(),
		"models":  len(s.reg.names()),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	s.met.registry.WriteTo(w)
}

// handleModels serves GET /v1/models: the registry listing.
func (s *Server) handleModels(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"default": s.DefaultModel(),
		"models":  s.Models(),
	})
}

// handleModelPut serves PUT /v1/models/{model}: load (or hot-swap) a
// model from disk. The body is a JSON ModelSource; an unknown field is a
// 400 naming it, so a misspelled or retired option is never dropped
// silently.
func (s *Server) handleModelPut(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 1<<20))
	dec.DisallowUnknownFields()
	var src ModelSource
	err := dec.Decode(&src)
	if err == nil && dec.Decode(&struct{}{}) != io.EOF {
		err = errors.New("data after the JSON object")
	}
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid model source: %v", err)
		return
	}
	if err := s.LoadModel(name, src); err != nil {
		s.writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	for _, st := range s.Models() {
		if st.Name == name {
			writeJSON(w, http.StatusOK, st)
			return
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"name": name})
}

// handleModelDelete serves DELETE /v1/models/{model}.
func (s *Server) handleModelDelete(w http.ResponseWriter, r *http.Request) {
	name := r.PathValue("model")
	switch err := s.RemoveModel(name); {
	case errors.Is(err, errModelNotFound):
		s.writeError(w, http.StatusNotFound, "%v", err)
	case err != nil:
		s.writeError(w, http.StatusBadRequest, "%v", err)
	default:
		writeJSON(w, http.StatusOK, map[string]any{"removed": name})
	}
}

// readRequest extracts (binary, func selector, k, precision, model name)
// from either encoding of the request.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request) (bin []byte, funcSel string, k int, precision, model string, ok bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.cfg.MaxBodyBytes))
	if err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			s.writeError(w, http.StatusRequestEntityTooLarge, "body exceeds %d bytes", s.cfg.MaxBodyBytes)
		} else {
			s.writeError(w, http.StatusBadRequest, "reading body: %v", err)
		}
		return nil, "", 0, "", "", false
	}
	var fast bool
	ct := r.Header.Get("Content-Type")
	if i := strings.IndexByte(ct, ';'); i >= 0 {
		ct = ct[:i]
	}
	switch strings.TrimSpace(ct) {
	case "application/json":
		var env predictEnvelope
		if err := json.Unmarshal(body, &env); err != nil {
			s.writeError(w, http.StatusBadRequest, "invalid JSON: %v", err)
			return nil, "", 0, "", "", false
		}
		bin, err = base64.StdEncoding.DecodeString(env.WasmBase64)
		if err != nil {
			s.writeError(w, http.StatusBadRequest, "invalid wasm_base64: %v", err)
			return nil, "", 0, "", "", false
		}
		funcSel, k, fast, precision, model = env.Func, env.K, env.Fast, env.Precision, env.Model
	default:
		// Raw binary body (application/wasm, application/octet-stream, or
		// unlabeled); selection comes from query parameters.
		bin = body
		funcSel = r.URL.Query().Get("func")
		model = r.URL.Query().Get("model")
		precision = r.URL.Query().Get("precision")
		if ks := r.URL.Query().Get("k"); ks != "" {
			k, err = strconv.Atoi(ks)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, "invalid k %q", ks)
				return nil, "", 0, "", "", false
			}
		}
		if fs := r.URL.Query().Get("fast"); fs != "" {
			fast, err = strconv.ParseBool(fs)
			if err != nil {
				s.writeError(w, http.StatusBadRequest, "invalid fast %q", fs)
				return nil, "", 0, "", "", false
			}
		}
	}
	switch precision {
	case "", "f64", "f32":
	default:
		s.writeError(w, http.StatusBadRequest, "invalid precision %q (want f64 or f32)", precision)
		return nil, "", 0, "", "", false
	}
	if fast {
		s.writeError(w, http.StatusBadRequest, "fast=true is no longer supported; use precision=f32 for the approximate engine")
		return nil, "", 0, "", "", false
	}
	if k <= 0 {
		k = s.cfg.DefaultK
	}
	if k > s.cfg.MaxK {
		k = s.cfg.MaxK
	}
	if len(bin) == 0 {
		s.writeError(w, http.StatusBadRequest, "empty wasm binary")
		return nil, "", 0, "", "", false
	}
	return bin, funcSel, k, precision, model, true
}

// resolveFuncs maps the func selector to module-defined function indices.
// Names resolve first (a resolved name or any export alias, the lowest
// defined index winning) and numeric index parsing is the fallback, so an
// export literally named "3" selects that export rather than function
// index 3.
func resolveFuncs(ld *ingest.Loaded, sel string) ([]int, error) {
	if sel == "" {
		all := make([]int, len(ld.Funcs))
		for i := range all {
			all[i] = i
		}
		return all, nil
	}
	if fi, ok := ld.Lookup(sel); ok {
		return []int{fi}, nil
	}
	if idx, err := strconv.Atoi(sel); err == nil {
		if idx < 0 || idx >= len(ld.Funcs) {
			return nil, fmt.Errorf("function index %d out of range (%d defined functions)", idx, len(ld.Funcs))
		}
		return []int{idx}, nil
	}
	return nil, fmt.Errorf("no function named %q", sel)
}

func (s *Server) handlePredict(w http.ResponseWriter, r *http.Request) {
	s.met.requests.Inc()
	s.met.inFlight.Inc()
	defer s.met.inFlight.Dec()
	start := time.Now()
	defer func() { s.met.latency.Observe(time.Since(start).Seconds()) }()

	bin, funcSel, k, precision, model, ok := s.readRequest(w, r)
	if !ok {
		return
	}
	// The {model} path segment wins over the envelope/query field; both
	// empty routes to the default model.
	if pm := r.PathValue("model"); pm != "" {
		model = pm
	}
	es, err := s.acquireModel(model)
	if err != nil {
		if errors.Is(err, errModelNotFound) {
			s.writeError(w, http.StatusNotFound, "%v", err)
		} else {
			s.writeError(w, http.StatusServiceUnavailable, "%v", err)
		}
		return
	}
	// Held for the whole request: a hot swap of this model drains only
	// after every element below has decoded.
	defer es.release()
	es.pm.requests.Inc()
	eng := &es.full
	if precision == "f32" {
		eng = es.f32
	}
	ld, err := ingest.Load(bin)
	if err != nil {
		s.writeError(w, http.StatusBadRequest, "invalid wasm binary: %v", err)
		return
	}
	funcs, err := resolveFuncs(ld, funcSel)
	if err != nil {
		s.writeError(w, http.StatusNotFound, "%v", err)
		return
	}

	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()

	resp := PredictResponse{
		Functions: make([]FunctionResult, 0, len(funcs)),
		Sections:  ld.Degradations(),
		Precision: eng.precision,
		Model:     es.name,
		Version:   es.version,
	}
	var predictErr error
	err = s.submit(ctx, func() {
		for _, fi := range funcs {
			// Between functions is the cheapest cancellation point a
			// multi-function request has: without it an expired request
			// would keep decoding every remaining function.
			if err := ctx.Err(); err != nil {
				predictErr = err
				return
			}
			fn := &ld.Funcs[fi]
			elems, hits, err := s.predictFunc(ctx, es.pm, eng, ld.Decoded.Module, fn, k)
			resp.CacheHits += hits
			if err != nil {
				predictErr = err
				return
			}
			resp.Functions = append(resp.Functions, FunctionResult{
				Index:      fi,
				Name:       fn.Name,
				NameSource: string(fn.Source),
				Elements:   elems,
			})
		}
	})
	switch {
	case errors.Is(err, errQueueFull):
		s.met.rejected.Inc()
		s.writeError(w, http.StatusServiceUnavailable, "server overloaded, retry later")
		return
	case errors.Is(err, context.DeadlineExceeded):
		s.met.timeouts.Inc()
		s.writeError(w, http.StatusGatewayTimeout, "prediction timed out after %s", s.cfg.RequestTimeout)
		return
	case err != nil:
		s.writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	if predictErr != nil {
		if errors.Is(predictErr, context.DeadlineExceeded) {
			s.met.timeouts.Inc()
			s.writeError(w, http.StatusGatewayTimeout, "prediction timed out after %s", s.cfg.RequestTimeout)
			return
		}
		s.writeError(w, http.StatusUnprocessableEntity, "prediction failed: %v", predictErr)
		return
	}
	writeJSON(w, http.StatusOK, resp)
}
