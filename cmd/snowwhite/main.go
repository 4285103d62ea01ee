// Command snowwhite runs the SnowWhite type-prediction pipeline end to
// end: dataset construction and statistics, per-task training and
// evaluation (Table 5), interactive prediction on compiled binaries, and a
// long-lived prediction service.
//
// Usage:
//
//	snowwhite stats   [-packages N] [-j N]               dataset stats + Tables 2-4
//	snowwhite eval    [-packages N] [-epochs N] [-task T] [-precision f64|f32] [-cpuprofile F] [-memprofile F] Table 5 / Figure 4
//	snowwhite train   [-packages N] [-j N] [-encoder bilstm|transformer] [-checkpoint F] -out model.bin
//
// The -j flag bounds the worker pools of the dataset pipeline, training
// shards, validation scoring, and test-set evaluation (0 = NumCPU); any
// worker count produces byte-identical datasets, trained weights, losses,
// and predictions. -encoder selects the model architecture for newly
// trained models (bilstm, the paper's, is the default; transformer is the
// self-attention alternative behind the same interface) — saved models
// record their architecture, so the flag is never needed at load time.
// `snowwhite train`
// writes a checkpoint after every epoch (default <out>.ckpt) and, when
// re-launched with the same flags, resumes from it instead of starting
// over; the file is removed once the model is saved.
//
//	snowwhite predict {-model model.bin | -packages N} -file {prog.c | bin.wasm} [-func NAME] [-k N]
//	snowwhite ingest  {-model model.bin | -packages N} {-file bin.wasm | -dir DIR} [-eval] [-k N] [-j N] [-precision f64|f32] [-out report.json]
//	snowwhite serve   {-model model.bin | -packages N} [-addr :8642] [-batch N] [-batch-wait D] [-f32] [-f32-model model.qbin] [-pprof-addr :6060] [-cache-file cache.jsonl] [-add-model name=path...]
//	snowwhite bench-serve -addr host:port -file bin.wasm [-qps N] [-duration D] [-sweep "10,50,100"] [-out BENCH_predict.json]
//	snowwhite export  -model model.bin -out model.qbin [-quantize int8|f32]
//	snowwhite acctest {-model model.bin | -packages N} -dir DIR [-quantize int8|f32] [-cand-model model.qbin] [-k N] [-budget 0.99]
//	snowwhite table1                                      Table 1
//
// `snowwhite predict` compiles a C file (or takes a .wasm binary) and
// prints the ingest report of its functions — every one, or the one -func
// names.
//
// `snowwhite ingest` accepts arbitrary MVP wasm binaries — unknown and
// custom sections are skipped with per-section diagnostics, malformed
// tails degrade gracefully — and emits a JSON report: per-function
// parameter/return type predictions with normalized beam confidences and
// name provenance (dwarf > names section > export > synthesized). With
// -eval, embedded DWARF becomes ground truth: the binary is stripped,
// predictions are scored against the DWARF-derived labels, and the report
// gains per-element truth ranks plus an accuracy summary. -dir walks a
// directory through a bounded worker pool; output is byte-identical at
// any -j.
//
// `snowwhite predict`, `serve` and `acctest` load binaries the way ingest
// does (ingest.Load), so they accept the same inputs and agree on
// function names and signature elements. Only the ingest report (which
// predict prints) reads DWARF; serve and acctest never do.
//
// `snowwhite serve` coalesces concurrent prediction queries into batched
// beam decodes: up to -batch queries (default 8) share one decoder GEMM
// per step, and a non-full batch waits at most -batch-wait (default 2ms)
// for stragglers; a lone request never waits. -batch 1 disables batching.
// With -f32 (or -f32-model) the server additionally loads a
// single-precision engine — float32 weights, f32 tapes, and 8-lane
// kernels — that answers requests opting in with precision=f32; it comes
// from -f32-model when given, otherwise from the f32 quantization of the
// primary model loaded straight into float32 storage, halving that
// engine's resident weights. -pprof-addr exposes net/http/pprof on a
// separate listener (off by default).
//
// The server is a multi-model registry: -add-model registers further
// models (POST /v1/models/{name}/predict routes to them; /v1/predict
// serves the primary), the /v1/models admin API loads, swaps, and removes
// models at runtime, and SIGHUP hot-swaps every disk-backed model with
// zero downtime — in-flight decodes on the old weights drain to
// completion while new requests already run on the new ones. With
// -cache-file the shared prediction cache persists across restarts: the
// log replays at startup (warm start) and compacts to a snapshot on
// graceful shutdown. `snowwhite bench-serve` drives a running server with
// an open-loop load generator (Poisson-less fixed-rate arrivals at -qps)
// and reports p50/p95/p99 latency, throughput, and cache hit rates, with
// -sweep for saturation curves; results merge into BENCH_predict.json.
//
// `snowwhite export` converts a trained full-precision predictor into
// the quantized on-disk format (int8 affine per matrix, or float32).
// Quantized files load anywhere a model file is accepted — the magic
// prefix routes them to the quantized loader automatically, which lands
// the weights on the f32 engine.
//
// `snowwhite acctest` is the accuracy-budget gate: it extracts every
// predictable signature element from the .wasm binaries under -dir,
// decodes them with both the full-precision reference and the quantized
// f32-engine candidate, and fails (exit 1) unless the
// candidate's top-1 prediction falls within the reference's top-k on at
// least -budget of the queries.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	rpprof "runtime/pprof"
	"strings"
	"syscall"
	"time"

	"repro/internal/accbudget"
	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/ingest"
	"repro/internal/metrics"
	"repro/internal/quant"
	"repro/internal/seq2seq"
	"repro/internal/server"
	"repro/internal/typelang"
)

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "stats":
		err = runStats(args)
	case "eval":
		err = runEval(args)
	case "train":
		err = runTrain(args)
	case "predict":
		err = runPredict(args)
	case "ingest":
		err = runIngest(args)
	case "serve":
		err = runServe(args)
	case "bench-serve":
		err = runBenchServe(args)
	case "export":
		err = runExport(args)
	case "acctest":
		err = runAcctest(args)
	case "table1":
		fmt.Print(core.Table1())
	default:
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "snowwhite:", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: snowwhite {stats|eval|train|predict|ingest|serve|bench-serve|export|acctest|table1} [flags]")
}

type commonOpts struct {
	packages *int
	epochs   *int
	seed     *int64
	testFrac *float64
	jobs     *int
	encoder  *string
}

func commonFlags(fs *flag.FlagSet) commonOpts {
	return commonOpts{
		packages: fs.Int("packages", 120, "number of synthetic packages"),
		epochs:   fs.Int("epochs", 3, "training epochs"),
		seed:     fs.Int64("seed", 1, "corpus seed"),
		testFrac: fs.Float64("testfrac", 0.02, "validation/test package fraction (paper: 0.02)"),
		jobs:     fs.Int("j", 0, "worker pool size for the dataset pipeline, training, and evaluation (0 = NumCPU); any value produces byte-identical output"),
		encoder:  fs.String("encoder", "bilstm", "encoder architecture for newly trained models: bilstm (the paper's) or transformer; saved models carry their own"),
	}
}

func (o commonOpts) config() core.Config {
	cfg := core.DefaultConfig()
	cfg.Corpus.Packages = *o.packages
	cfg.Corpus.Seed = *o.seed
	cfg.Model.Epochs = *o.epochs
	cfg.Split.Valid = *o.testFrac
	cfg.Split.Test = *o.testFrac
	cfg.Parallelism = *o.jobs
	enc, err := seq2seq.ParseEncoder(*o.encoder)
	if err != nil {
		fmt.Fprintln(os.Stderr, "snowwhite:", err)
		os.Exit(2)
	}
	cfg.Model.Encoder = enc
	return cfg
}

func runStats(args []string) error {
	fs := flag.NewFlagSet("stats", flag.ExitOnError)
	opts := commonFlags(fs)
	export := fs.String("export", "", "also export the dataset as JSONL to this file")
	fs.Parse(args)
	cfg := opts.config()
	d, err := core.BuildDataset(cfg, logLine)
	if err != nil {
		return err
	}
	if *export != "" {
		f, err := os.Create(*export)
		if err != nil {
			return err
		}
		if err := d.ExportJSONL(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		logLine(fmt.Sprintf("exported %d samples to %s", len(d.Samples), *export))
	}
	fmt.Println()
	fmt.Println(d.Section5Stats())
	fmt.Println(d.Table2(10))
	fmt.Println(d.Table3(8))
	fmt.Println(core.FormatTable4(d.Table4()))
	return nil
}

// profileOpts wires the shared -cpuprofile/-memprofile flags: CPU
// profiling runs from start() to the returned stop; the heap profile is
// written (after a GC, so it reflects live memory) when stop runs.
type profileOpts struct {
	cpu *string
	mem *string
}

func profileFlags(fs *flag.FlagSet) profileOpts {
	return profileOpts{
		cpu: fs.String("cpuprofile", "", "write a CPU profile to this file"),
		mem: fs.String("memprofile", "", "write a heap profile to this file on exit"),
	}
}

func (o profileOpts) start() (stop func() error, err error) {
	var cpuFile *os.File
	if *o.cpu != "" {
		if cpuFile, err = os.Create(*o.cpu); err != nil {
			return nil, err
		}
		if err := rpprof.StartCPUProfile(cpuFile); err != nil {
			cpuFile.Close()
			return nil, err
		}
	}
	return func() error {
		if cpuFile != nil {
			rpprof.StopCPUProfile()
			if err := cpuFile.Close(); err != nil {
				return err
			}
			logLine("wrote CPU profile to " + *o.cpu)
		}
		if *o.mem != "" {
			f, err := os.Create(*o.mem)
			if err != nil {
				return err
			}
			runtime.GC()
			if err := rpprof.WriteHeapProfile(f); err != nil {
				f.Close()
				return err
			}
			if err := f.Close(); err != nil {
				return err
			}
			logLine("wrote heap profile to " + *o.mem)
		}
		return nil
	}, nil
}

// applyPrecision pins a predictor's task models to the given inference
// engine ("" keeps the default). Training is untouched: precision only
// selects the forward-only tape Predict uses.
func applyPrecision(p *core.Predictor, precision string) error {
	if precision == "" {
		return nil
	}
	for _, tr := range []*core.Trained{p.Param, p.Return} {
		if tr == nil {
			continue
		}
		if err := tr.Model.SetPrecision(precision); err != nil {
			return err
		}
	}
	return nil
}

func runEval(args []string) error {
	fs := flag.NewFlagSet("eval", flag.ExitOnError)
	opts := commonFlags(fs)
	taskFilter := fs.String("task", "", "substring filter on task names (e.g. \"Lsw / param\")")
	fig4 := fs.Bool("fig4", false, "also print Figure 4 (accuracy by nesting depth)")
	precision := fs.String("precision", "", "inference engine for test-set evaluation (f64 or f32; training always runs f64)")
	prof := profileFlags(fs)
	fs.Parse(args)
	stopProf, err := prof.start()
	if err != nil {
		return err
	}
	cfg := opts.config()
	d, err := core.BuildDataset(cfg, logLine)
	if err != nil {
		return err
	}
	var results []*core.TaskResult
	var lswParam, lswReturn *core.TaskResult
	for _, task := range core.Table5Tasks() {
		if *taskFilter != "" && !strings.Contains(task.Name(), *taskFilter) {
			continue
		}
		logLine("training " + task.Name())
		tr, err := d.TrainTask(task, nil, logLine)
		if err != nil {
			return err
		}
		if err := tr.Model.SetPrecision(*precision); err != nil {
			return err
		}
		res := d.EvalTask(task, tr, nil)
		results = append(results, res)
		if task.Variant == typelang.VariantLSW && !task.AblateLowType {
			if task.Return {
				lswReturn = res
			} else {
				lswParam = res
			}
		}
	}
	fmt.Println()
	fmt.Println(core.FormatTable5(results))
	if *fig4 && lswParam != nil && lswReturn != nil {
		fmt.Println(core.FormatFigure4(lswParam, lswReturn))
	}
	return stopProf()
}

// runTrain trains parameter and return models and saves them to a file.
// Training checkpoints after every epoch; a killed run re-launched with
// the same flags resumes from the last checkpoint and converges to the
// same model as an uninterrupted run.
func runTrain(args []string) error {
	fs := flag.NewFlagSet("train", flag.ExitOnError)
	opts := commonFlags(fs)
	out := fs.String("out", "snowwhite-model.bin", "output model file")
	ckpt := fs.String("checkpoint", "", "training checkpoint file (default <out>.ckpt; \"none\" disables)")
	fs.Parse(args)
	ckptPath := *ckpt
	switch ckptPath {
	case "":
		ckptPath = *out + ".ckpt"
	case "none":
		ckptPath = ""
	}
	p, err := core.TrainPredictorCheckpointed(opts.config(), ckptPath, logLine)
	if err != nil {
		return err
	}
	if err := core.SavePredictor(p, *out); err != nil {
		return err
	}
	logLine("saved predictor to " + *out)
	if ckptPath != "" {
		if err := os.Remove(ckptPath); err != nil && !os.IsNotExist(err) {
			return err
		}
	}
	return nil
}

// loadOrTrain returns a saved predictor when modelPath is set, otherwise
// trains one from a fresh synthetic dataset. Both on-disk formats load:
// quantized exports come back on the f32 engine.
func loadOrTrain(modelPath string, opts commonOpts) (*core.Predictor, error) {
	if modelPath != "" {
		p, err := core.LoadPredictorAuto(modelPath)
		if err != nil {
			return nil, err
		}
		logLine("loaded predictor from " + modelPath)
		return p, nil
	}
	return core.TrainPredictor(opts.config(), logLine)
}

func runPredict(args []string) error {
	fs := flag.NewFlagSet("predict", flag.ExitOnError)
	opts := commonFlags(fs)
	file := fs.String("file", "", "C source file to compile and analyze (or .wasm binary)")
	funcName := fs.String("func", "", "report only the function with this name (default: every function)")
	topK := fs.Int("k", 5, "number of predictions per element")
	modelPath := fs.String("model", "", "load a saved predictor instead of training one")
	fs.Parse(args)
	if *file == "" {
		return fmt.Errorf("predict requires -file")
	}
	data, err := os.ReadFile(*file)
	if err != nil {
		return err
	}
	var bin []byte
	if strings.HasSuffix(*file, ".wasm") {
		bin = data
	} else {
		obj, err := cc.Compile(string(data), cc.Options{FileName: *file, Debug: false})
		if err != nil {
			return err
		}
		bin = obj.Binary
	}

	p, err := loadOrTrain(*modelPath, opts)
	if err != nil {
		return err
	}
	rep := (&ingest.Ingester{Pred: p, K: *topK}).Binary(filepath.Base(*file), bin)
	if rep.Error != "" {
		return errors.New(rep.Error)
	}
	if *funcName != "" {
		var keep []ingest.FunctionReport
		for _, fr := range rep.Funcs {
			if fr.Name == *funcName {
				keep = append(keep, fr)
			}
		}
		if keep == nil {
			return fmt.Errorf("predict: no function named %q", *funcName)
		}
		rep.Funcs = keep
	}
	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	_, err = os.Stdout.Write(append(buf, '\n'))
	return err
}

// runIngest produces structured prediction reports for real-world wasm
// binaries (one file or a directory tree), optionally scoring against
// embedded DWARF.
func runIngest(args []string) error {
	fs := flag.NewFlagSet("ingest", flag.ExitOnError)
	opts := commonFlags(fs)
	file := fs.String("file", "", "one .wasm binary to ingest")
	dir := fs.String("dir", "", "ingest every .wasm under this directory")
	topK := fs.Int("k", 5, "number of ranked predictions per element")
	eval := fs.Bool("eval", false, "score predictions against embedded DWARF (external eval)")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	modelPath := fs.String("model", "", "load a saved predictor instead of training one")
	printMetrics := fs.Bool("print-metrics", false, "dump ingest metrics in exposition format to stderr")
	precision := fs.String("precision", "", "inference engine for predictions (f64 or f32)")
	fs.Parse(args)
	if (*file == "") == (*dir == "") {
		return fmt.Errorf("ingest requires exactly one of -file or -dir")
	}

	p, err := loadOrTrain(*modelPath, opts)
	if err != nil {
		return err
	}
	if err := applyPrecision(p, *precision); err != nil {
		return err
	}
	reg := metrics.NewRegistry()
	ing := &ingest.Ingester{Pred: p, K: *topK, Eval: *eval, Metrics: ingest.NewMetrics(reg)}

	var report any
	if *file != "" {
		data, err := os.ReadFile(*file)
		if err != nil {
			return err
		}
		report = ing.Binary(filepath.Base(*file), data)
	} else {
		report, err = ing.Dir(*dir, *opts.jobs)
		if err != nil {
			return err
		}
	}

	buf, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			return err
		}
		logLine("wrote report to " + *out)
	} else {
		os.Stdout.Write(buf)
	}
	if *printMetrics {
		reg.WriteTo(os.Stderr)
	}
	return nil
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string     { return strings.Join(*m, ",") }
func (m *multiFlag) Set(v string) error { *m = append(*m, v); return nil }

// parseModelSpec parses one -add-model value:
// name=path[,f32=quantized.qbin][,f32-quantize=int8|f32].
func parseModelSpec(spec string) (name string, src server.ModelSource, err error) {
	eq := strings.IndexByte(spec, '=')
	if eq <= 0 {
		return "", src, fmt.Errorf("invalid -add-model %q (want name=path[,f32=F][,f32-quantize=M])", spec)
	}
	name = spec[:eq]
	parts := strings.Split(spec[eq+1:], ",")
	src.Path = parts[0]
	for _, p := range parts[1:] {
		switch {
		case strings.HasPrefix(p, "f32="):
			src.F32Path = strings.TrimPrefix(p, "f32=")
		case strings.HasPrefix(p, "f32-quantize="):
			src.F32Quantize = strings.TrimPrefix(p, "f32-quantize=")
		default:
			return "", src, fmt.Errorf("invalid -add-model option %q in %q", p, spec)
		}
	}
	if src.Path == "" {
		return "", src, fmt.Errorf("invalid -add-model %q: empty path", spec)
	}
	return name, src, nil
}

// runServe starts the long-lived prediction service: it loads (or trains)
// a default predictor plus any -add-model entries into the multi-model
// registry, serves the /v1 API, hot-swaps every disk-backed model on
// SIGHUP, and drains in-flight work on SIGTERM/SIGINT.
func runServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	opts := commonFlags(fs)
	modelPath := fs.String("model", "", "load a saved predictor instead of training one")
	modelName := fs.String("model-name", "default", "registry name for the primary model (the /v1/predict default)")
	addr := fs.String("addr", ":8642", "listen address")
	workers := fs.Int("workers", 0, "worker pool size (0 = GOMAXPROCS)")
	cacheSize := fs.Int("cache", 4096, "prediction cache entries (negative disables)")
	cacheFile := fs.String("cache-file", "", "persist the prediction cache to this file (replayed at startup, compacted on shutdown)")
	maxBody := fs.Int64("max-body", 8<<20, "maximum upload size in bytes")
	timeout := fs.Duration("timeout", 60*time.Second, "per-request prediction timeout")
	drain := fs.Duration("drain", 30*time.Second, "graceful-shutdown drain deadline")
	batch := fs.Int("batch", 8, "max queries coalesced per batched beam decode (<=1 disables)")
	batchWait := fs.Duration("batch-wait", 2*time.Millisecond, "max time a non-full batch waits for stragglers")
	f32 := fs.Bool("f32", false, "also serve a single-precision engine for requests with precision=f32")
	f32Model := fs.String("f32-model", "", "quantized model file for the f32 engine (default: in-memory f32 quantization of the primary model; implies -f32)")
	pprofAddr := fs.String("pprof-addr", "", "expose net/http/pprof on this address (e.g. localhost:6060; empty disables)")
	var addModels multiFlag
	fs.Var(&addModels, "add-model", "register an extra model: name=path[,f32=F][,f32-quantize=M] (repeatable)")
	fs.Parse(args)

	p, err := loadOrTrain(*modelPath, opts)
	if err != nil {
		return err
	}
	defSrc := server.ModelSource{Path: *modelPath}
	var f32Pred *core.Predictor
	if *f32Model != "" {
		if f32Pred, err = core.LoadQuantizedPredictor(*f32Model); err != nil {
			return err
		}
		defSrc.F32Path = *f32Model
		logLine("loaded f32 predictor from " + *f32Model)
	} else if *f32 {
		if f32Pred, err = core.QuantizePredictor(p, quant.F32); err != nil {
			return err
		}
		defSrc.F32Quantize = string(quant.F32)
		logLine("f32 engine ready (in-memory f32 quantization, float32-resident weights)")
	}
	if *pprofAddr != "" {
		// pprof lives on its own mux and listener so profiling endpoints
		// never share a port with the public API.
		pmux := http.NewServeMux()
		pmux.HandleFunc("/debug/pprof/", pprof.Index)
		pmux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		pmux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		pmux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		pmux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		go func() {
			if err := http.ListenAndServe(*pprofAddr, pmux); err != nil {
				logLine(fmt.Sprintf("pprof listener failed: %v", err))
			}
		}()
		logLine("pprof listening on " + *pprofAddr)
	}
	srv, err := server.NewWithSource(p, server.Config{
		Addr:           *addr,
		Workers:        *workers,
		CacheSize:      *cacheSize,
		CachePath:      *cacheFile,
		MaxBodyBytes:   *maxBody,
		RequestTimeout: *timeout,
		BatchSize:      *batch,
		BatchWait:      *batchWait,
		DefaultModel:   *modelName,
		F32Pred:        f32Pred,
	}, defSrc)
	if err != nil {
		return err
	}
	for _, spec := range addModels {
		name, src, err := parseModelSpec(spec)
		if err != nil {
			return err
		}
		if err := srv.LoadModel(name, src); err != nil {
			return err
		}
		logLine(fmt.Sprintf("registered model %q from %s", name, src.Path))
	}

	// Signals are trapped before the listener starts, so a SIGTERM that
	// lands as soon as the port answers still drains gracefully.
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, syscall.SIGINT, syscall.SIGTERM, syscall.SIGHUP)
	errc := make(chan error, 1)
	go func() { errc <- srv.ListenAndServe() }()
	logLine("serving on " + *addr + " (POST /v1/predict, POST /v1/models/{m}/predict, GET /v1/models, GET /healthz, GET /metrics)")
	for {
		select {
		case sig := <-sigc:
			if sig == syscall.SIGHUP {
				// Zero-downtime reload: every disk-backed model hot-swaps
				// to freshly loaded weights while requests keep flowing.
				reloaded, err := srv.Reload()
				if err != nil {
					logLine(fmt.Sprintf("reload failed (old versions keep serving): %v", err))
				}
				logLine(fmt.Sprintf("SIGHUP: hot-swapped %d model(s) %v", len(reloaded), reloaded))
				continue
			}
			logLine(fmt.Sprintf("received %s, draining (up to %s)", sig, *drain))
			ctx, cancel := context.WithTimeout(context.Background(), *drain)
			defer cancel()
			if err := srv.Shutdown(ctx); err != nil {
				return fmt.Errorf("shutdown: %w", err)
			}
			if err := <-errc; err != nil && !errors.Is(err, http.ErrServerClosed) {
				return err
			}
			logLine("drained, bye")
			return nil
		case err := <-errc:
			return err
		}
	}
}

// runExport converts a saved full-precision predictor into the
// quantized on-disk format.
func runExport(args []string) error {
	fs := flag.NewFlagSet("export", flag.ExitOnError)
	modelPath := fs.String("model", "", "saved full-precision predictor to convert")
	out := fs.String("out", "", "output quantized model file")
	quantize := fs.String("quantize", "int8", "quantization mode (int8 or f32)")
	fs.Parse(args)
	if *modelPath == "" || *out == "" {
		return fmt.Errorf("export requires -model and -out")
	}
	mode, err := quant.ParseMode(*quantize)
	if err != nil {
		return err
	}
	p, err := core.LoadPredictor(*modelPath)
	if err != nil {
		return err
	}
	if err := core.ExportQuantized(p, *out, mode); err != nil {
		return err
	}
	fi, err := os.Stat(*out)
	if err != nil {
		return err
	}
	logLine(fmt.Sprintf("exported %s predictor to %s (%d bytes)", mode, *out, fi.Size()))
	return nil
}

// runAcctest runs the accuracy-budget gate: the quantized f32-engine
// candidate against the full-precision reference over every predictable
// signature element under -dir. Exit status 1 when the candidate's
// top-k agreement falls below -budget.
func runAcctest(args []string) error {
	fs := flag.NewFlagSet("acctest", flag.ExitOnError)
	opts := commonFlags(fs)
	modelPath := fs.String("model", "", "load a saved full-precision predictor instead of training one")
	dir := fs.String("dir", "", "directory of .wasm evaluation binaries")
	quantize := fs.String("quantize", "int8", "quantization mode for the in-memory candidate (int8 or f32)")
	candModel := fs.String("cand-model", "", "use this quantized model file as the candidate instead of quantizing in memory")
	topK := fs.Int("k", 3, "reference beam width the candidate's top-1 must fall within")
	budget := fs.Float64("budget", 0.99, "minimum fraction of queries whose candidate top-1 is in the reference top-k")
	out := fs.String("out", "", "write the JSON report here (default stdout)")
	fs.Parse(args)
	if *dir == "" {
		return fmt.Errorf("acctest requires -dir")
	}

	ref, err := loadOrTrain(*modelPath, opts)
	if err != nil {
		return err
	}
	var cand *core.Predictor
	if *candModel != "" {
		if cand, err = core.LoadQuantizedPredictor(*candModel); err != nil {
			return err
		}
		logLine("candidate: quantized predictor " + *candModel)
	} else {
		mode, err := quant.ParseMode(*quantize)
		if err != nil {
			return err
		}
		if cand, err = core.QuantizePredictor(ref, mode); err != nil {
			return err
		}
		logLine(fmt.Sprintf("candidate: in-memory %s quantization + f32 engine", mode))
	}

	queries, skipped, err := accbudget.QueriesFromDir(ref, *dir)
	if err != nil {
		return err
	}
	for _, name := range skipped {
		logLine("skipped binary with an unusable header " + name)
	}
	if len(queries) == 0 {
		return fmt.Errorf("acctest: no queries extracted from %s", *dir)
	}
	logLine(fmt.Sprintf("comparing %d queries at k=%d", len(queries), *topK))
	rep := accbudget.Compare(ref, cand, queries, *topK)

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return err
	}
	buf = append(buf, '\n')
	if *out != "" {
		if err := os.WriteFile(*out, buf, 0o644); err != nil {
			return err
		}
		logLine("wrote report to " + *out)
	} else {
		os.Stdout.Write(buf)
	}
	logLine(fmt.Sprintf("top-1 agreement %.4f, top-%d agreement %.4f (%d/%d)",
		rep.Top1Agreement(), *topK, rep.TopKAgreement(), rep.TopKMatches, rep.Total))
	if !rep.Pass(*budget) {
		return fmt.Errorf("accuracy budget failed: top-%d agreement %.4f < %.4f over %d queries",
			*topK, rep.TopKAgreement(), *budget, rep.Total)
	}
	logLine(fmt.Sprintf("accuracy budget passed (>= %.4f)", *budget))
	return nil
}

func logLine(s string) { fmt.Fprintln(os.Stderr, "[snowwhite]", s) }
