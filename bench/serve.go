package main

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"path/filepath"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
)

// Serving rates. serve-miss runs its open loop at about 40% of the
// server's closed-loop capacity on a 2-CPU host, serve-hit far below the
// capacity of its cache-hit path. On 2 CPUs the server queues at most 8
// requests behind its 2 workers and rejects the rest, so an open loop at
// rate r fails requests whenever the server stalls for about 10/r: 25 ms
// at 400 requests/s, which a shared host did, and 50 ms at 200.
const (
	missRate     = 30.0  // requests/s, open loop
	missCapacity = 200.0 // upper bound on closed-loop requests/s, for sizing inputs
	hitBinaries  = 20
	hitRate      = 200.0
)

// request is one POST /v1/predict: a binary and the function it asks for
// (-1 for every function).
type request struct {
	bin *binary
	fn  int
}

// elements is the signature elements the request asks for.
func (r request) elements() int {
	if r.fn < 0 {
		return r.bin.elements()
	}
	return r.bin.Elems[r.fn]
}

func (r request) path() string {
	if r.fn < 0 {
		return "/v1/predict"
	}
	return "/v1/predict?func=" + strconv.Itoa(r.fn)
}

// predictResponse mirrors the fields of the server's response the
// benchmark checks.
type predictResponse struct {
	Functions []struct {
		Index    int                              `json:"index"`
		Elements map[string][]core.TypePrediction `json:"elements"`
	} `json:"functions"`
	CacheHits int `json:"cache_hits"`
}

func (p predictResponse) elements() int {
	n := 0
	for _, f := range p.Functions {
		n += len(f.Elements)
	}
	return n
}

func missCorpus(seed int64) corpus.Options {
	opts := corpus.DefaultOptions()
	opts.Seed = subSeed(seed, streamServeMiss)
	opts.LibraryShare, opts.ExactDupShare = 0, 0
	return opts
}

// missRequests generates distinct single-function requests: a corpus
// without shared library code or duplicate files, so no two requests
// carry the same function body and (almost) every element misses the
// cache.
func missRequests(seed int64, need int) ([]request, string, error) {
	opts := missCorpus(seed)
	fewest := opts.MinFuncs // functions per binary, at least
	bins, sum, err := genBinaries(opts, need/fewest+1)
	if err != nil {
		return nil, "", err
	}
	var reqs []request
	for i := range bins {
		for f := 0; f < len(bins[i].Elems) && len(reqs) < need; f++ {
			reqs = append(reqs, request{&bins[i], f})
		}
	}
	return reqs, sum, nil
}

// startServe starts (in each set-up repetition) the server the workload
// measures; only the last repetition's server stays up.
func (e *env) startServe(model string, last bool, prime func(*server) error) (*server, error) {
	srv, err := startServer(e.snowwhite, model, filepath.Join(e.build, "serve-"+e.workload+".log"))
	if err != nil {
		return nil, err
	}
	if prime != nil {
		if err := prime(srv); err != nil {
			srv.stop()
			return nil, err
		}
	}
	if !last {
		srv.stop()
		return nil, nil
	}
	return srv, nil
}

// fire posts r and reports success; body (may be nil) receives the
// response.
func fire(srv *server, r request, body *[]byte) bool {
	status, b, err := srv.post(r.path(), r.bin.Data)
	if body != nil {
		*body = b
	}
	return err == nil && status == http.StatusOK
}

const (
	// window is the length of the closed-loop windows whose medians the
	// serving workloads report.
	window = time.Second
	// warmup is how long a serving workload sends unmeasured closed-loop
	// load before it starts timing.
	warmup = time.Second
)

// warmUp sends closed-loop load for warmup, checks only that it
// succeeded, and returns how many requests it sent.
func (e *env) warmUp(fire func(i int) bool) int {
	d := warmup
	if e.short {
		d /= 10
	}
	out := closedLoop(e.nproc, d, fire)
	for _, o := range out {
		e.attempted++
		if !o.OK {
			e.fail(1, "warm-up request failed")
		}
	}
	return len(out)
}

// closedPhase runs the closed loop of a serving workload for d while it
// reads the server's CPU time at every window boundary.
func (e *env) closedPhase(srv *server, d time.Duration, fire func(i int) bool) ([]outcome, []reading, error) {
	stop := sampleCPU(window, func() (float64, error) { return procCPU(srv.pid()) })
	closed := closedLoop(e.nproc, d, fire)
	rs, err := stop()
	return closed, rs, err
}

// reportServe prints the serving end-to-end metrics, open-loop latency
// from due times and closed-loop goodput as the median over the closed
// loop's windows, and prints the server's CPU per unit of work, also a
// median over the windows (rs holds the server's CPU time at their
// boundaries). A unit is one signature element; closedUnits(i) gives
// closed-loop request i's.
func (e *env) reportServe(srv *server, open, closed []outcome, rs []reading, closedUnits func(int) int) error {
	lat := msOf(open, outcome.latency)
	for _, os := range [][]outcome{open, closed} {
		for _, o := range os {
			e.attempted++
			if !o.OK {
				e.fail(1, "request failed")
			}
		}
	}
	rates, cpu := windowed(closed, latencyLimit, rs, closedUnits)
	if len(rates) == 0 {
		return fmt.Errorf("the closed loop ended no request")
	}
	e.metric("throughput_per_s", median(rates), "1/s")
	e.latencies(fmt.Sprintf("%d requests", len(lat)), func(q float64) (float64, bool) { return percentile(lat, q) })
	e.info("server CPU %.4g ms per element", median(cpu)*1000)
	if rss, err := peakRSSMB(strconv.Itoa(srv.pid())); err == nil {
		e.info("server peak RSS %.1f MiB", rss)
	}
	late, _ := percentile(msOf(open, outcome.late), 0.99)
	e.info("open loop: %d requests, generator p99 lateness %.3f ms; closed loop: %d requests by %d clients in %d windows of %v",
		len(open), late, len(closed), e.nproc, len(rates), window)
	e.info("closed-loop windows: goodput %s 1/s", spreadOf(rates))
	if m, err := srv.scrape(); err == nil {
		hits, misses := m["snowwhite_cache_hits_total"], m["snowwhite_cache_misses_total"]
		e.info("server: cache hits %.0f of %.0f elements, batch mean %.3f, rejected %.0f, timeouts %.0f",
			hits, hits+misses, ratio(m["snowwhite_batch_size_sum"], m["snowwhite_batch_size_count"]),
			m["snowwhite_requests_rejected_total"], m["snowwhite_request_timeouts_total"])
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// runServeMiss measures the server on requests that miss the cache: an
// open loop at a fixed rate, then a closed loop of nproc clients.
func (e *env) runServeMiss() error {
	model, err := ensureModel(e)
	if err != nil {
		return err
	}
	openDur, closedDur := e.duration(0.5), e.duration(0.5)
	nOpen := int(missRate * openDur.Seconds())
	need := nOpen + int(missCapacity*(warmup+closedDur).Seconds())
	var (
		reqs []request
		sum  string
		srv  *server
	)
	err = e.setup(5, func(last bool) error {
		var err error
		if reqs, sum, err = missRequests(e.seed, need); err != nil {
			return err
		}
		srv, err = e.startServe(model, last, nil)
		return err
	})
	if err != nil {
		return err
	}
	defer srv.stop()
	e.info("corpus sha256 %s (%d distinct requests)", sum, len(reqs))
	base := e.warmUp(func(i int) bool { return fire(srv, reqs[i%len(reqs)], nil) })
	// at is the i-th measured request: the warm-up used the first ones.
	at := func(i int) request { return reqs[(base+i)%len(reqs)] }
	// Every oracleEvery-th open-loop response is checked against the
	// in-process exact engine after the load has finished.
	const oracleEvery = 25
	bodies := make([][]byte, nOpen)
	open := openLoop(missRate, nOpen, func(i int) bool {
		var b *[]byte
		if i%oracleEvery == 0 {
			b = &bodies[i]
		}
		return fire(srv, at(i), b)
	})
	closed, rs, err := e.closedPhase(srv, closedDur, func(i int) bool {
		return fire(srv, at(nOpen+i), nil)
	})
	if err != nil {
		return err
	}
	if sent := base + nOpen + len(closed); sent > len(reqs) {
		e.info("closed loop wrapped around the inputs: %d requests for %d distinct ones", sent, len(reqs))
	}
	closedUnits := func(i int) int { return at(nOpen + i).elements() }
	if err := e.reportServe(srv, open, closed, rs, closedUnits); err != nil {
		return err
	}
	openReqs := make([]request, nOpen)
	for i := range openReqs {
		openReqs[i] = at(i)
	}
	return e.checkMissOracle(model, openReqs, bodies)
}

// checkMissOracle compares sampled responses with predictions made in
// process on the exact engine.
func (e *env) checkMissOracle(model string, reqs []request, bodies [][]byte) error {
	p, _, err := loadModel(model, "f64")
	if err != nil {
		return err
	}
	checked, bad := 0, 0
	for i, b := range bodies {
		if b == nil {
			continue
		}
		checked++
		want, err := predictFunc(p, reqs[i])
		var got predictResponse
		if err != nil || json.Unmarshal(b, &got) != nil || len(got.Functions) != 1 ||
			!reflect.DeepEqual(got.Functions[0].Elements, want) {
			bad++
		}
	}
	e.info("oracle: %d sampled responses equal in-process exact predictions, %d differ", checked-bad, bad)
	e.fail(bad, "served predictions differ from in-process predictions")
	return nil
}

// predictFunc predicts every element of one function in process, the way
// the server does: strict decode, DWARF stripped, default k.
func predictFunc(p *core.Predictor, r request) (map[string][]core.TypePrediction, error) {
	m, err := core.DecodeStripped(r.bin.Data)
	if err != nil {
		return nil, err
	}
	sig, err := m.FuncTypeAt(uint32(r.fn + m.NumImportedFuncs()))
	if err != nil {
		return nil, err
	}
	out := map[string][]core.TypePrediction{}
	for pi := range sig.Params {
		src, err := p.ParamInput(m, r.fn, pi)
		if err != nil {
			return nil, err
		}
		out[fmt.Sprintf("param%d", pi)] = p.Param.PredictTyped([][]string{src}, []int{5})[0]
	}
	if len(sig.Results) > 0 {
		src, err := p.ReturnInput(m, r.fn)
		if err != nil {
			return nil, err
		}
		out["return"] = p.Return.PredictTyped([][]string{src}, []int{5})[0]
	}
	return out, nil
}

// hitBins generates the serve-hit working set: whole binaries from the
// default corpus, half with DWARF.
func hitBins(seed int64, n int) ([]binary, string, error) {
	opts := corpus.DefaultOptions()
	opts.Seed = subSeed(seed, streamServeHit)
	return genBinaries(opts, n)
}

// primeAll posts every binary once from nproc clients and returns the
// responses.
func primeAll(srv *server, bins []binary, clients int) ([][]byte, error) {
	bodies := make([][]byte, len(bins))
	errs := make([]error, len(bins))
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < len(bins); i += clients {
				if !fire(srv, request{&bins[i], -1}, &bodies[i]) {
					errs[i] = fmt.Errorf("priming %s failed", bins[i].Name)
				}
			}
		}(c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return bodies, nil
}

// runServeHit measures the server on requests it answers from its cache:
// a working set of whole binaries is posted once during set-up, then
// replayed in an open loop and a closed loop.
func (e *env) runServeHit() error {
	model, err := ensureModel(e)
	if err != nil {
		return err
	}
	n := hitBinaries
	if e.short {
		n = 6
	}
	var (
		bins   []binary
		sum    string
		primed [][]byte
		srv    *server
	)
	err = e.setup(2, func(last bool) error {
		var err error
		if bins, sum, err = hitBins(e.seed, n); err != nil {
			return err
		}
		srv, err = e.startServe(model, last, func(s *server) error {
			primed, err = primeAll(s, bins, e.nproc)
			return err
		})
		return err
	})
	if err != nil {
		return err
	}
	defer srv.stop()
	e.info("corpus sha256 %s (%d binaries)", sum, n)
	e.warmUp(func(i int) bool { return fire(srv, request{&bins[i%n], -1}, nil) })
	openDur, closedDur := e.duration(0.6), e.duration(0.4)
	nOpen := int(math.Max(1, hitRate*openDur.Seconds()))
	bodies := make([][]byte, nOpen)
	open := openLoop(hitRate, nOpen, func(i int) bool {
		return fire(srv, request{&bins[i%n], -1}, &bodies[i])
	})
	closed, rs, err := e.closedPhase(srv, closedDur, func(i int) bool {
		return fire(srv, request{&bins[i%n], -1}, nil)
	})
	if err != nil {
		return err
	}
	units := func(i int) int { return bins[i%n].elements() }
	if err := e.reportServe(srv, open, closed, rs, units); err != nil {
		return err
	}
	bad := 0
	for i, b := range bodies {
		var got, want predictResponse
		if json.Unmarshal(b, &got) != nil || json.Unmarshal(primed[i%n], &want) != nil ||
			!reflect.DeepEqual(got.Functions, want.Functions) || got.CacheHits != got.elements() {
			bad++
		}
	}
	e.info("oracle: %d of %d open-loop responses equal their priming response and were served from the cache", nOpen-bad, nOpen)
	e.fail(bad, "cache-hit responses differ from priming or missed the cache")
	return nil
}
