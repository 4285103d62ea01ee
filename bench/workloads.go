package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"path/filepath"
	"time"

	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/split"
	"repro/internal/typelang"
)

// Workload sizes. They are part of the benchmark's definition: a change
// that claims a gain must not alter them.
const (
	ingestBinaries = 100 // binaries per ingest pass
	ingestMinPass  = 3   // passes per engine, at least
	trainPackages  = 24  // packages in the train workload's corpus
	latencyLimit   = 100 * time.Millisecond
)

// loadModel loads the benchmark model at the given precision and
// returns it with its fingerprint.
func loadModel(path, precision string) (*core.Predictor, string, error) {
	p, err := core.LoadPredictor(path)
	if err != nil {
		return nil, "", err
	}
	for _, tr := range []*core.Trained{p.Param, p.Return} {
		if err := tr.Model.SetPrecision(precision); err != nil {
			return nil, "", err
		}
	}
	fp, err := core.FingerprintPredictor(p)
	return p, hex.EncodeToString(fp[:]), err
}

// differing counts how many of xs differ from xs[0].
func differing(xs []string) int {
	n := 0
	for _, x := range xs[1:] {
		if x != xs[0] {
			n++
		}
	}
	return n
}

func digest(v any) (string, error) {
	buf, err := json.Marshal(v)
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(buf)
	return hex.EncodeToString(h[:]), nil
}

// ingestCorpus is the default corpus with a fixed number of functions
// per file, so that binaries are alike in size from seed to seed and a
// per-binary latency means the same thing in every run.
func ingestCorpus(seed int64) corpus.Options {
	opts := corpus.DefaultOptions()
	opts.Seed = subSeed(seed, streamIngest)
	opts.MinFuncs, opts.MaxFuncs = 7, 7
	return opts
}

// runIngest is `snowwhite ingest -dir -eval` over a generated corpus:
// Dir passes alternate between the exact-f64 and the f32 engine on the
// same binaries until the run length is used up.
func (e *env) runIngest() error {
	model, err := ensureModel(e)
	if err != nil {
		return err
	}
	n := ingestBinaries
	minPass := ingestMinPass
	if e.short {
		n, minPass = 6, 1
	}
	dir := filepath.Join(e.build, "ingest-"+e.workload)
	var (
		p64, p32  *core.Predictor
		fps       []string
		corpusSum string
		elems     int
	)
	err = e.setup(9, func(bool) error {
		var fp string
		var err error
		if p64, fp, err = loadModel(model, "f64"); err != nil {
			return err
		}
		fps = append(fps, fp)
		if p32, _, err = loadModel(model, "f32"); err != nil {
			return err
		}
		var bins []binary
		if bins, corpusSum, err = genBinaries(ingestCorpus(e.seed), n); err != nil {
			return err
		}
		elems = 0
		for i := range bins {
			elems += bins[i].elements()
		}
		return writeDir(dir, bins)
	})
	if err != nil {
		return err
	}
	e.info("model fingerprint %s", fps[0])
	e.info("corpus sha256 %s (%d binaries, %d signature elements)", corpusSum, n, elems)
	e.fail(differing(fps), "model fingerprint differs between set-ups")

	m64 := ingest.NewMetrics(metrics.NewRegistry())
	m64.Seconds = fineHistogram()
	engines := []struct {
		name  string
		ing   *ingest.Ingester
		walls []float64
		sums  []string
		last  *ingest.DirReport
	}{
		{name: "f64", ing: &ingest.Ingester{Pred: p64, Eval: true, Metrics: m64}},
		{name: "f32", ing: &ingest.Ingester{Pred: p32, Eval: true}},
	}
	var cpu64 float64
	var rss []float64
	start := time.Now()
	for len(engines[1].walls) < minPass || time.Since(start) < e.duration(1) {
		for i := range engines {
			en := &engines[i]
			freshPeakRSS()
			c0, t0 := selfCPU(), time.Now()
			rep, err := en.ing.Dir(dir, e.nproc)
			if err != nil {
				return fmt.Errorf("ingest %s pass: %w", en.name, err)
			}
			en.walls = append(en.walls, time.Since(t0).Seconds())
			if i == 0 {
				cpu64 += selfCPU() - c0
				peak, err := peakRSSMB("self")
				if err != nil {
					return err
				}
				rss = append(rss, peak)
			}
			sum, err := digest(rep)
			if err != nil {
				return err
			}
			en.sums = append(en.sums, sum)
			en.last = rep
			e.attempted += len(rep.Binaries)
			for _, b := range rep.Binaries {
				if b.Error != "" {
					e.fail(1, "%s: %s", b.Binary, b.Error)
				}
			}
		}
	}
	for _, en := range engines {
		e.fail(differing(en.sums), "%s ingest reports differ between passes", en.name)
	}
	passes := len(engines[0].walls)
	e.info("exact-f64 report sha256 %s", engines[0].sums[0])
	e.info("passes %d per engine, %d binaries each", passes, n)
	e.metric("throughput_per_s", float64(elems)/median(engines[0].walls), "1/s")
	e.latencies(fmt.Sprintf("%d binaries", m64.Seconds.Count()), func(q float64) (float64, bool) {
		v, ok := histPercentile(m64.Seconds, q)
		return v * 1000, ok
	})
	e.info("process CPU %.4g ms per element (exact-f64 passes)", cpu64*1000/float64(elems*passes))
	e.info("peak RSS %.1f MiB (median over exact-f64 passes)", median(rss))

	// Printed for the f64-vs-f32 comparison; not part of the summary.
	r64, r32 := engines[0].last, engines[1].last
	e.info("binaries/s %.4g, f32 binaries/s %.4g, f32 elements/s %.4g", float64(n)/median(engines[0].walls),
		float64(n)/median(engines[1].walls), float64(elems)/median(engines[1].walls))
	if r64.Eval != nil && r32.Eval != nil {
		e.info("top1 %.4f f32_top1 %.4f over %d DWARF-labelled elements", r64.Eval.Top1, r32.Eval.Top1, r64.Eval.Labeled)
	}
	same, total := topAgreement(r64, r32)
	e.info("f32 top-1 equals f64 top-1 on %d/%d elements", same, total)
	return nil
}

// topAgreement counts elements whose top-ranked prediction is the same in
// two reports of the same binaries.
func topAgreement(a, b *ingest.DirReport) (same, total int) {
	for i, ba := range a.Binaries {
		bb := b.Binaries[i]
		for fi, f := range ba.Funcs {
			for ei, el := range f.Elements {
				if len(el.Predictions) == 0 {
					continue
				}
				total++
				other := bb.Funcs[fi].Elements[ei].Predictions
				if len(other) > 0 && other[0].Text == el.Predictions[0].Text {
					same++
				}
			}
		}
	}
	return same, total
}

// trainConfig is the train workload's dataset and model: the default
// architecture on a small corpus drawn from the run seed. Every package
// has the same number of files and functions and no shared or duplicate
// code, so each seed yields a dataset of about the same size.
func trainConfig(seed int64, nproc int, short bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Corpus.Seed = subSeed(seed, streamTrain)
	cfg.Corpus.Packages = trainPackages
	cfg.Corpus.MinFiles, cfg.Corpus.MaxFiles = 2, 2
	cfg.Corpus.MinFuncs, cfg.Corpus.MaxFuncs = 7, 7
	cfg.Corpus.LibraryShare, cfg.Corpus.ExactDupShare = 0, 0
	cfg.Model.Epochs = 1
	cfg.Split = split.Fractions{Valid: 0.1, Test: 0.1}
	cfg.Parallelism = nproc
	if short {
		shrink(&cfg)
		cfg.Corpus.Packages = 4
	}
	return cfg
}

// fineTrainMetrics is core.TrainMetrics with fine-grained histograms.
func fineTrainMetrics() *core.TrainMetrics {
	return &core.TrainMetrics{
		Batches: &metrics.Counter{}, Shards: &metrics.Counter{},
		Tokens: &metrics.Counter{}, Epochs: &metrics.Counter{},
		ShardSeconds: fineHistogram(), MergeSeconds: fineHistogram(), EpochSeconds: fineHistogram(),
	}
}

var paramTask = core.Task{Variant: typelang.VariantLSW}

// runTrain trains the parameter model on a seeded dataset over and over
// until the run length is used up; every job must produce the same
// weights.
func (e *env) runTrain() error {
	cfg := trainConfig(e.seed, e.nproc, e.short)
	var d *core.Dataset
	err := e.setup(9, func(bool) error {
		var err error
		d, err = core.BuildDatasetInstrumented(cfg, nil, nil)
		return err
	})
	if err != nil {
		return err
	}
	dsum, err := digest(d.Samples)
	if err != nil {
		return err
	}
	e.info("dataset sha256 %s (%d samples)", dsum, len(d.Samples))
	tm := fineTrainMetrics()
	var rates, rss []float64
	var fps []string
	c0, start := selfCPU(), time.Now()
	for len(rates) < 2 || time.Since(start) < e.duration(1) {
		freshPeakRSS()
		tokens, t0 := tm.Tokens.Value(), time.Now()
		tr, err := d.TrainTask(paramTask, &core.TrainTaskOptions{Metrics: tm}, nil)
		if err != nil {
			return err
		}
		rates = append(rates, float64(tm.Tokens.Value()-tokens)/time.Since(t0).Seconds())
		peak, err := peakRSSMB("self")
		if err != nil {
			return err
		}
		rss = append(rss, peak)
		fp, err := core.FingerprintPredictor(&core.Predictor{Param: tr})
		if err != nil {
			return err
		}
		fps = append(fps, hex.EncodeToString(fp[:]))
		e.attempted++
	}
	cpu := selfCPU() - c0
	e.fail(differing(fps), "training is not deterministic: model fingerprints differ between jobs")
	e.info("trained model fingerprint %s", fps[0])
	steps := tm.Batches.Value()
	e.info("%d jobs, %d optimizer steps, %d target tokens", len(rates), steps, tm.Tokens.Value())
	e.metric("throughput_per_s", median(rates), "1/s")
	e.latencies(fmt.Sprintf("%d steps", steps), func(q float64) (float64, bool) {
		v, ok := histPercentile(tm.ShardSeconds, q)
		return v * 1000, ok
	})
	e.info("process CPU %.4g ms per target token", cpu*1000/float64(tm.Tokens.Value()))
	e.info("peak RSS %.1f MiB (median over jobs)", median(rss))
	return nil
}
