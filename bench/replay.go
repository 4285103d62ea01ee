package main

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/bpe"
	"repro/internal/core"
	"repro/internal/dwarf"
	"repro/internal/extract"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/seq2seq"
	"repro/internal/split"
	"repro/internal/wasm"
)

// replayBinaries is how many of the workload's binaries the traced run
// replays.
const replayBinaries = 40

// replayRequests is how many single-function requests the traced run
// sends the server (serve-hit replays its binaries from the cache
// instead).
const replayRequests = 60

// replayInputs returns the binaries the workload feeds the system.
func (e *env) replayInputs(n int) ([]binary, string, error) {
	switch e.workload {
	case "ingest":
		return genBinaries(ingestCorpus(e.seed), n)
	case "serve-miss":
		return genBinaries(missCorpus(e.seed), n)
	case "serve-hit":
		return hitBins(e.seed, min(n, hitBinaries))
	default:
		return genBinaries(trainConfig(e.seed, e.nproc, e.short).Corpus, n)
	}
}

// replayStats counts the work one replay did.
type replayStats struct {
	elems, srcTokens, subwords int // one beam search per element
	calls, outTokens           int
}

func (s *replayStats) add(o replayStats) {
	s.elems += o.elems
	s.srcTokens += o.srcTokens
	s.subwords += o.subwords
	s.calls += o.calls
	s.outTokens += o.outTokens
}

// replay runs every binary through the layers ingestion calls, on nproc
// lanes, with a span around each call: ingest.Load, extraction of every
// element's input, subword encoding, the batched beam decode per model,
// and encoding the result as JSON. It returns the ranked prediction texts
// per binary, function and element, as Ingester.Dir reports them.
func (e *env) replay(tr *tracer, phase string, p *core.Predictor, bins []binary) ([][][][]string, replayStats, error) {
	out := make([][][][]string, len(bins))
	errs := make([]error, len(bins))
	var (
		mu    sync.Mutex
		total replayStats
		wg    sync.WaitGroup
	)
	jobs := make(chan int)
	for w := 0; w < e.nproc; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			lane := tr.begin(phase+"lane", 0, 0)
			defer tr.end(lane)
			var st replayStats
			for i := range jobs {
				out[i], errs[i] = replayBinary(tr, phase, lane, i+1, p, bins[i].Data, &st)
			}
			mu.Lock()
			total.add(st)
			mu.Unlock()
		}()
	}
	for i := range bins {
		jobs <- i
	}
	close(jobs)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, total, fmt.Errorf("replay %s: %w", bins[i].Name, err)
		}
	}
	return out, total, nil
}

// elem is one signature element queued for a model.
type elem struct {
	fn, idx int
	src     []string
}

func replayBinary(tr *tracer, phase string, lane, req int, p *core.Predictor, data []byte, st *replayStats) ([][][]string, error) {
	top := tr.begin(phase+"binary", lane, req)
	defer tr.end(top)
	var ld *ingest.Loaded
	var err error
	tr.do(phase+"ingest.load", top, req, func() { ld, err = ingest.Load(data) })
	if err != nil {
		return nil, err
	}
	m := ld.Decoded.Module
	texts := make([][][]string, len(m.Funcs))
	var params, returns []elem
	tr.do(phase+"extract", top, req, func() {
		dwarf.Strip(m)
		for fi := range m.Funcs {
			fn := &m.Funcs[fi]
			texts[fi] = [][]string{}
			if int(fn.TypeIdx) >= len(m.Types) {
				continue
			}
			sig := m.Types[fn.TypeIdx]
			for pi, low := range sig.Params {
				params = append(params, elem{fi, pi, extract.InputForParam(fn, pi, low, p.Opts)})
			}
			texts[fi] = make([][]string, len(sig.Params))
			if len(sig.Results) == 1 {
				returns = append(returns, elem{fi, len(sig.Params), extract.InputForReturn(fn, sig.Results[0], p.Opts)})
				texts[fi] = append(texts[fi], nil)
			}
		}
	})
	for _, q := range []struct {
		tr    *core.Trained
		elems []elem
	}{{p.Param, params}, {p.Return, returns}} {
		if len(q.elems) == 0 {
			continue
		}
		srcs := make([][]string, len(q.elems))
		ks := make([]int, len(q.elems))
		tr.do(phase+"bpe", top, req, func() {
			for i, el := range q.elems {
				srcs[i], ks[i] = encode(q.tr.BPE, el.src), 5
				st.srcTokens += len(el.src)
				st.subwords += len(srcs[i])
			}
		})
		var preds [][]seq2seq.Prediction
		tr.do(phase+"seq2seq", top, req, func() { preds = q.tr.Model.PredictMulti(srcs, ks) })
		st.elems += len(q.elems)
		st.calls++
		for i, el := range q.elems {
			for _, b := range preds[i] {
				st.outTokens += len(b.Tokens)
			}
			texts[el.fn][el.idx] = beamTexts(preds[i])
		}
	}
	tr.do(phase+"report", top, req, func() { _, err = json.Marshal(texts) })
	return texts, err
}

func encode(m *bpe.Model, src []string) []string {
	if m == nil {
		return src
	}
	return m.Encode(src)
}

// beamTexts renders beams the way reports do: empty beams dropped, the
// uninformative type when none is left.
func beamTexts(preds []seq2seq.Prediction) []string {
	var out []string
	for _, b := range preds {
		if len(b.Tokens) > 0 {
			out = append(out, core.LabelString(b.Tokens))
		}
	}
	if len(out) == 0 {
		out = []string{"unknown"}
	}
	return out
}

// dirTexts extracts the same shape from an ingest report.
func dirTexts(rep *ingest.DirReport) [][][][]string {
	out := make([][][][]string, len(rep.Binaries))
	for bi, b := range rep.Binaries {
		out[bi] = make([][][]string, len(b.Funcs))
		for fi, f := range b.Funcs {
			out[bi][fi] = make([][]string, len(f.Elements))
			for ei, el := range f.Elements {
				for _, tp := range el.Predictions {
					out[bi][fi][ei] = append(out[bi][fi][ei], tp.Text)
				}
			}
		}
	}
	return out
}

// runTraced is the -trace 1 run: the workload's binaries replayed in
// process with spans on, the front-end calls timed one by one, a training
// job and the server on the same inputs. It reports per-layer metrics.
func (e *env) runTraced(spansPath string) error {
	model, err := ensureModel(e)
	if err != nil {
		return err
	}
	n := replayBinaries
	if e.short {
		n = 4
	}
	bins, sum, err := e.replayInputs(n)
	if err != nil {
		return err
	}
	e.info("replay corpus sha256 %s (%d binaries)", sum, len(bins))
	dir := filepath.Join(e.build, "replay-"+e.workload)
	if err := writeDir(dir, bins); err != nil {
		return err
	}
	p64, fp, err := loadModel(model, "f64")
	if err != nil {
		return err
	}
	e.info("model fingerprint %s", fp)
	p32, _, err := loadModel(model, "f32")
	if err != nil {
		return err
	}

	// The untraced reference: what Ingester.Dir predicts on the same
	// binaries, and how long it takes once the first pass has warmed the
	// decoder's buffer pools.
	ing := &ingest.Ingester{Pred: p64, Eval: true}
	rep, err := ing.Dir(dir, e.nproc)
	if err != nil {
		return err
	}
	tr := newTracer()
	t0 := time.Now()
	got, st, err := e.replay(tr, "f64/", p64, bins)
	if err != nil {
		return err
	}
	tracedWall := time.Since(t0)
	t0 = time.Now()
	if _, err := ing.Dir(dir, e.nproc); err != nil {
		return err
	}
	dirWall := time.Since(t0)
	_, st32, err := e.replay(tr, "f32/", p32, bins)
	if err != nil {
		return err
	}
	e.attempted += 2 * len(bins)
	if !reflect.DeepEqual(got, dirTexts(rep)) {
		e.fail(1, "traced replay predictions differ from Ingester.Dir")
	}
	if err := e.traceTrain(tr); err != nil {
		return err
	}
	if err := tr.write(spansPath, e.workload); err != nil {
		return err
	}
	e.info("spans written to %s", spansPath)

	spans := tr.snapshot()
	all, laneWall := selfTimes(spans)
	f64 := phaseSelf(spans, "f64/")
	f32 := phaseSelf(spans, "f32/")
	var selfSum, f64Sum float64
	for _, v := range all {
		selfSum += v
	}
	for _, v := range f64 {
		f64Sum += v
	}
	r := selfSum / laneWall
	e.metric("trace.self_sum_ratio", r, "ratio")
	if r < 0.95 || r > 1.05 {
		e.fail(1, "span self times sum to %.3f of the traced wall time", r)
	}
	e.metric("trace.overhead_pct", (tracedWall.Seconds()/dirWall.Seconds()-1)*100, "%")
	e.metric("ingest.load_us", f64["ingest.load"]*1e6/float64(len(bins)), "us")
	e.metric("extract.us_per_elem", f64["extract"]*1e6/float64(st.elems), "us")
	e.metric("extract.tokens_per_elem", float64(st.srcTokens)/float64(st.elems), "count")
	e.metric("bpe.us_per_elem", f64["bpe"]*1e6/float64(st.elems), "us")
	e.metric("bpe.subwords_per_elem", float64(st.subwords)/float64(st.elems), "count")
	e.metric("seq2seq.ms_per_search", f64["seq2seq"]*1e3/float64(st.elems), "ms")
	e.metric("seq2seq.f32_ms_per_search", f32["seq2seq"]*1e3/float64(st32.elems), "ms")
	e.metric("seq2seq.searches_per_call", float64(st.elems)/float64(st.calls), "count")
	e.metric("seq2seq.out_tokens_per_search", float64(st.outTokens)/float64(st.elems), "count")
	e.metric("seq2seq.decode_share", f64["seq2seq"]/f64Sum, "ratio")
	e.metric("report.json_us_per_binary", f64["report"]*1e6/float64(len(bins)), "us")
	e.probeFrontEnd(bins)
	e.probeAllocs(p64, bins)
	return e.traceServer(model, bins)
}

// phaseSelf is selfTimes over one phase's spans, keyed without the
// phase prefix.
func phaseSelf(spans []span, phase string) map[string]float64 {
	var sub []span
	for _, s := range spans {
		if strings.HasPrefix(s.Name, phase) {
			s.Name = strings.TrimPrefix(s.Name, phase)
			sub = append(sub, s)
		}
	}
	self, _ := selfTimes(sub)
	return self
}

// probeFrontEnd times the decoders one call at a time, serially: the
// tolerant decoder ingest uses, the strict one serving uses, and the
// DWARF reader on the binaries that carry DWARF. Each binary is timed
// three times and its fastest time kept.
func (e *env) probeFrontEnd(bins []binary) {
	best := func(f func()) float64 {
		b := 0.0
		for r := 0; r < 3; r++ {
			t := time.Now()
			f()
			if d := time.Since(t).Seconds(); r == 0 || d < b {
				b = d
			}
		}
		return b
	}
	var tol, strict, dw float64
	ndw := 0
	for _, b := range bins {
		tol += best(func() { wasm.DecodeTolerant(b.Data) })
		strict += best(func() { wasm.Decode(b.Data) })
		d, err := wasm.Decode(b.Data)
		if err != nil || !b.DWARF {
			continue
		}
		secs, err := dwarf.Extract(d.Module)
		if err != nil {
			continue
		}
		dw += best(func() { dwarf.Read(secs) })
		ndw++
	}
	e.metric("wasm.decode_us", tol*1e6/float64(len(bins)), "us")
	e.metric("wasm.strict_decode_us", strict*1e6/float64(len(bins)), "us")
	e.metric("dwarf.read_us", dw*1e6/float64(max(ndw, 1)), "us")
}

// probeAllocs measures heap allocations of the exact-f64 decode on one
// serial batch of parameter searches.
func (e *env) probeAllocs(p *core.Predictor, bins []binary) {
	var srcs [][]string
	for _, b := range bins {
		m, err := core.DecodeStripped(b.Data)
		if err != nil {
			continue
		}
		for fi := range m.Funcs {
			if src, err := p.ParamInput(m, fi, 0); err == nil && len(srcs) < 16 {
				srcs = append(srcs, encode(p.Param.BPE, src))
			}
		}
	}
	if len(srcs) == 0 {
		e.fail(1, "no parameter searches to measure allocations on")
		return
	}
	ks := make([]int, len(srcs))
	for i := range ks {
		ks[i] = 5
	}
	p.Param.Model.PredictMulti(srcs, ks) // warm the buffer pools
	var a, b runtime.MemStats
	runtime.ReadMemStats(&a)
	p.Param.Model.PredictMulti(srcs, ks)
	runtime.ReadMemStats(&b)
	n := float64(len(srcs))
	e.metric("seq2seq.allocs_per_search", float64(b.Mallocs-a.Mallocs)/n, "count")
	e.metric("seq2seq.kb_per_search", float64(b.TotalAlloc-a.TotalAlloc)/1024/n, "KiB")
}

// traceTrain runs one training job of the train workload's shape with
// spans around the dataset build, subword learning and training.
func (e *env) traceTrain(tr *tracer) error {
	cfg := trainConfig(e.seed, e.nproc, e.short)
	lane := tr.begin("train/lane", 0, 0)
	defer tr.end(lane)
	pm := core.NewPipelineMetrics(metrics.NewRegistry())
	var d *core.Dataset
	var err error
	t := time.Now()
	tr.do("train/pipeline.build", lane, 0, func() { d, err = core.BuildDatasetInstrumented(cfg, nil, pm) })
	if err != nil {
		return err
	}
	e.metric("pipeline.dataset_s", time.Since(t).Seconds(), "s")
	e.metric("pipeline.generate_ms_per_pkg", 1e3*ratio(pm.GenerateSeconds.Sum(), float64(pm.GenerateSeconds.Count())), "ms")
	e.metric("pipeline.compile_ms_per_file", 1e3*ratio(pm.CompileSeconds.Sum(), float64(pm.CompileSeconds.Count())), "ms")
	e.metric("pipeline.extract_ms_per_bin", 1e3*ratio(pm.ExtractSeconds.Sum(), float64(pm.ExtractSeconds.Count())), "ms")

	// The subword model TrainTask learns: token counts of the training
	// split's parameter inputs.
	freq := map[string]int{}
	for _, s := range d.Samples {
		if !s.Elem.IsReturn() && d.Part(s) == split.Train {
			for _, tok := range s.Input {
				freq[tok]++
			}
		}
	}
	t = time.Now()
	tr.do("train/bpe.learn", lane, 0, func() { bpe.Learn(freq, cfg.BPESrcVocab) })
	e.metric("bpe.learn_s", time.Since(t).Seconds(), "s")

	tm := fineTrainMetrics()
	tr.do("train/train.task", lane, 0, func() {
		_, err = d.TrainTask(paramTask, &core.TrainTaskOptions{Metrics: tm}, nil)
	})
	if err != nil {
		return err
	}
	e.attempted++
	steps := float64(tm.Batches.Value())
	shard, merge := tm.ShardSeconds.Sum(), tm.MergeSeconds.Sum()
	e.metric("train.shard_ms_per_step", shard*1e3/steps, "ms")
	e.metric("train.merge_ms_per_step", merge*1e3/steps, "ms")
	e.metric("train.serial_share", merge/(shard+merge), "ratio")
	e.metric("train.valid_s_per_epoch", (tm.EpochSeconds.Sum()-shard-merge)/float64(tm.Epochs.Value()), "s")
	return nil
}

// traceServer starts the server and sends it the workload's traffic
// pattern on the replay binaries: serve-hit primes them and replays them
// from the cache, the other workloads ask for each of their functions
// once. It reports the server's own counters.
func (e *env) traceServer(model string, bins []binary) error {
	t := time.Now()
	srv, err := startServer(e.snowwhite, model, filepath.Join(e.build, "serve-trace-"+e.workload+".log"))
	if err != nil {
		return err
	}
	defer srv.stop()
	e.metric("server.startup_s", time.Since(t).Seconds(), "s")
	cpu0, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	var open []outcome
	sent := 0
	if e.workload == "serve-hit" {
		if _, err := primeAll(srv, bins, e.nproc); err != nil {
			return err
		}
		sent = len(bins)
		nOpen := int(hitRate * e.duration(0.15).Seconds())
		open = openLoop(hitRate, nOpen, func(i int) bool { return fire(srv, request{&bins[i%len(bins)], -1}, nil) })
	} else {
		limit := replayRequests
		if e.short {
			limit = 6
		}
		var reqs []request
		for i := range bins {
			for f := 0; f < len(bins[i].Elems) && len(reqs) < limit; f++ {
				reqs = append(reqs, request{&bins[i], f})
			}
		}
		open = openLoop(missRate, len(reqs), func(i int) bool { return fire(srv, reqs[i], nil) })
	}
	for _, o := range open {
		e.attempted++
		if !o.OK {
			e.fail(1, "request failed")
		}
	}
	sent += len(open)
	cpu, err := procCPU(srv.pid())
	if err != nil {
		return err
	}
	m, err := srv.scrape()
	if err != nil {
		return err
	}
	hits, misses := m["snowwhite_cache_hits_total"], m["snowwhite_cache_misses_total"]
	e.metric("server.cache_hit_ratio", ratio(hits, hits+misses), "ratio")
	e.metric("server.batch_mean", ratio(m["snowwhite_batch_size_sum"], m["snowwhite_batch_size_count"]), "count")
	e.metric("server.batch_queue_ms", 1e3*ratio(m["snowwhite_batch_queue_seconds_sum"], m["snowwhite_batch_queue_seconds_count"]), "ms")
	e.metric("server.inference_ms_per_elem", 1e3*ratio(m["snowwhite_inference_seconds_sum"], m["snowwhite_inference_seconds_count"]), "ms")
	e.metric("server.request_ms", 1e3*ratio(m["snowwhite_request_seconds_sum"], m["snowwhite_request_seconds_count"]), "ms")
	e.metric("server.rejected", m["snowwhite_requests_rejected_total"], "count")
	e.metric("server.timeouts", m["snowwhite_request_timeouts_total"], "count")
	e.metric("server.cpu_ms_per_req", (cpu-cpu0)*1e3/float64(sent), "ms")
	rss, err := peakRSSMB(strconv.Itoa(srv.pid()))
	if err != nil {
		return err
	}
	e.metric("server.peak_rss_mb", rss, "MiB")
	late, _ := percentile(msOf(open, outcome.late), 0.95)
	e.metric("loadgen.late_ms_p95", late, "ms")
	return nil
}
