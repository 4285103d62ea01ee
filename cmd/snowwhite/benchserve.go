package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"net/http"
	"os"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// bench-serve: an open-loop load generator for a running `snowwhite
// serve` instance. Open-loop means arrivals fire at the target rate
// regardless of completions (a ticker spawns one request per interval),
// so queueing delay shows up in the measured latency instead of
// throttling the offered load — the methodology that exposes saturation,
// unlike closed-loop clients whose arrival rate collapses to the
// service rate. A -sweep runs one measurement per target rate to trace
// the saturation curve; -label tags runs (e.g. cold vs warm start) and
// -merge-into folds the results into BENCH_predict.json next to the
// microbenchmarks.

// serveRunResult is one measured load point.
type serveRunResult struct {
	Label        string  `json:"label,omitempty"`
	TargetQPS    float64 `json:"target_qps"`
	DurationSec  float64 `json:"duration_sec"`
	Requests     int     `json:"requests"`
	Failed       int     `json:"failed"`
	AchievedQPS  float64 `json:"achieved_qps"`
	MeanMs       float64 `json:"mean_ms"`
	P50Ms        float64 `json:"p50_ms"`
	P95Ms        float64 `json:"p95_ms"`
	P99Ms        float64 `json:"p99_ms"`
	MaxMs        float64 `json:"max_ms"`
	Elements     int     `json:"elements"`
	CacheHits    int     `json:"cache_hits"`
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// benchTarget is everything one request needs.
type benchTarget struct {
	url    string
	body   []byte
	client *http.Client
}

// fire posts one prediction request and reports (latency, elements,
// cacheHits, ok).
func (t *benchTarget) fire() (time.Duration, int, int, bool) {
	start := time.Now()
	resp, err := t.client.Post(t.url, "application/wasm", bytes.NewReader(t.body))
	if err != nil {
		return time.Since(start), 0, 0, false
	}
	defer resp.Body.Close()
	var pr struct {
		Functions []struct {
			Elements map[string]json.RawMessage `json:"elements"`
		} `json:"functions"`
		CacheHits int `json:"cache_hits"`
	}
	dec := json.NewDecoder(resp.Body)
	if err := dec.Decode(&pr); err != nil || resp.StatusCode != http.StatusOK {
		io.Copy(io.Discard, resp.Body)
		return time.Since(start), 0, 0, false
	}
	elems := 0
	for _, f := range pr.Functions {
		elems += len(f.Elements)
	}
	return time.Since(start), elems, pr.CacheHits, true
}

// runLoad drives one open-loop measurement: requests start every 1/qps
// regardless of in-flight count, for the given duration, then every
// outstanding request is awaited.
func runLoad(t *benchTarget, qps float64, duration time.Duration, label string) serveRunResult {
	interval := time.Duration(float64(time.Second) / qps)
	if interval <= 0 {
		interval = time.Microsecond
	}
	var (
		mu        sync.Mutex
		latencies []time.Duration
		failed    int
		elements  int
		hits      int
		wg        sync.WaitGroup
	)
	start := time.Now()
	deadline := start.Add(duration)
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	launch := func() {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lat, elems, h, ok := t.fire()
			mu.Lock()
			defer mu.Unlock()
			latencies = append(latencies, lat)
			elements += elems
			hits += h
			if !ok {
				failed++
			}
		}()
	}
	launch() // first arrival at t=0
	for now := range ticker.C {
		if now.After(deadline) {
			break
		}
		launch()
	}
	wg.Wait()
	elapsed := time.Since(start).Seconds()

	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	pct := func(q float64) float64 {
		if len(latencies) == 0 {
			return 0
		}
		i := int(math.Ceil(q*float64(len(latencies)))) - 1
		if i < 0 {
			i = 0
		}
		return ms(latencies[i])
	}
	var sum time.Duration
	for _, l := range latencies {
		sum += l
	}
	res := serveRunResult{
		Label:       label,
		TargetQPS:   qps,
		DurationSec: elapsed,
		Requests:    len(latencies),
		Failed:      failed,
		Elements:    elements,
		CacheHits:   hits,
		P50Ms:       pct(0.50),
		P95Ms:       pct(0.95),
		P99Ms:       pct(0.99),
	}
	if len(latencies) > 0 {
		res.AchievedQPS = float64(len(latencies)) / elapsed
		res.MeanMs = ms(sum) / float64(len(latencies))
		res.MaxMs = ms(latencies[len(latencies)-1])
	}
	if elements > 0 {
		res.CacheHitRate = float64(hits) / float64(elements)
	}
	return res
}

// mergeInto folds the serve results into an existing benchmark JSON file
// (or creates it), under the "serve" key, preserving everything else.
func mergeInto(path string, runs []serveRunResult) error {
	doc := map[string]any{}
	if buf, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(buf, &doc); err != nil {
			return fmt.Errorf("bench-serve: %s is not a JSON object: %w", path, err)
		}
	} else if !os.IsNotExist(err) {
		return err
	}
	// Accumulate across invocations (bench.sh runs cold and warm phases as
	// separate processes): existing runs with the same label are replaced,
	// others are kept.
	var kept []serveRunResult
	if prev, ok := doc["serve"]; ok {
		if buf, err := json.Marshal(prev); err == nil {
			var old []serveRunResult
			if json.Unmarshal(buf, &old) == nil {
				for _, o := range old {
					replaced := false
					for _, n := range runs {
						if o.Label == n.Label && o.TargetQPS == n.TargetQPS {
							replaced = true
							break
						}
					}
					if !replaced {
						kept = append(kept, o)
					}
				}
			}
		}
	}
	doc["serve"] = append(kept, runs...)
	buf, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(buf, '\n'), 0o644)
}

// runBenchServe measures a running prediction server under open-loop
// load and reports latency percentiles, throughput, and cache hit rate.
func runBenchServe(args []string) error {
	fs := flag.NewFlagSet("bench-serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8642", "server address (host:port)")
	file := fs.String("file", "", "wasm binary to post on every request")
	funcSel := fs.String("func", "", "function selector forwarded to the server")
	topK := fs.Int("k", 0, "beam width forwarded to the server (0 = server default)")
	precision := fs.String("precision", "", "request a precision tier (f32 routes to the single-precision engine)")
	model := fs.String("model", "", "route to a named registry model (default: the server's default model)")
	qps := fs.Float64("qps", 20, "target arrival rate (open loop)")
	duration := fs.Duration("duration", 10*time.Second, "measurement length per load point")
	sweep := fs.String("sweep", "", "comma-separated QPS list for a saturation sweep (overrides -qps)")
	label := fs.String("label", "", "tag for this run (e.g. cold, warm)")
	maxFailures := fs.Int("max-failures", -1, "exit 1 if any load point fails more than this many requests (-1 disables)")
	prof := profileFlags(fs)
	mergePath := fs.String("merge-into", "", "merge results into this benchmark JSON file under the \"serve\" key")
	ready := fs.Bool("ready", false, "probe GET /healthz and exit (0 = serving); runs no load and touches no cache entries")
	fs.Parse(args)
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	if *ready {
		resp, err := (&http.Client{Timeout: 5 * time.Second}).Get("http://" + *addr + "/healthz")
		if err != nil {
			return err
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("bench-serve: healthz returned %d", resp.StatusCode)
		}
		return nil
	}
	if *file == "" {
		return fmt.Errorf("bench-serve requires -file")
	}
	body, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	base := "http://" + *addr
	var path string
	if *model != "" {
		path = base + "/v1/models/" + *model + "/predict"
	} else {
		path = base + "/v1/predict"
	}
	params := []string{}
	if *funcSel != "" {
		params = append(params, "func="+*funcSel)
	}
	if *topK > 0 {
		params = append(params, "k="+strconv.Itoa(*topK))
	}
	if *precision != "" {
		params = append(params, "precision="+*precision)
	}
	if len(params) > 0 {
		path += "?" + strings.Join(params, "&")
	}
	t := &benchTarget{url: path, body: body, client: &http.Client{Timeout: 5 * time.Minute}}

	rates := []float64{*qps}
	if *sweep != "" {
		rates = rates[:0]
		for _, s := range strings.Split(*sweep, ",") {
			r, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
			if err != nil || r <= 0 {
				return fmt.Errorf("bench-serve: invalid -sweep entry %q", s)
			}
			rates = append(rates, r)
		}
	}

	// Verify reachability via /healthz rather than a throwaway prediction:
	// a preflight decode would prime the cache for the benchmark binary and
	// erase the cold-start signal (every timed request would hit).
	if resp, err := t.client.Get(base + "/healthz"); err != nil {
		return fmt.Errorf("bench-serve: server at %s not answering: %w", *addr, err)
	} else {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			return fmt.Errorf("bench-serve: healthz at %s returned %d", *addr, resp.StatusCode)
		}
	}

	var runs []serveRunResult
	tooManyFailures := false
	for _, rate := range rates {
		res := runLoad(t, rate, *duration, *label)
		runs = append(runs, res)
		logLine(fmt.Sprintf("qps=%g: %d requests (%d failed) achieved=%.1f/s p50=%.1fms p95=%.1fms p99=%.1fms hit-rate=%.3f",
			rate, res.Requests, res.Failed, res.AchievedQPS, res.P50Ms, res.P95Ms, res.P99Ms, res.CacheHitRate))
		if *maxFailures >= 0 && res.Failed > *maxFailures {
			tooManyFailures = true
		}
	}

	buf, err := json.MarshalIndent(runs, "", "  ")
	if err != nil {
		return err
	}
	os.Stdout.Write(append(buf, '\n'))
	if *mergePath != "" {
		if err := mergeInto(*mergePath, runs); err != nil {
			return err
		}
		logLine("merged results into " + *mergePath)
	}
	if tooManyFailures {
		return fmt.Errorf("bench-serve: failed requests exceeded -max-failures %d", *maxFailures)
	}
	return stopProf()
}
