// Command bench is the repository's benchmark. It generates every input
// from -seed, runs one workload against the code in the repository root,
// checks that the outputs are correct, prints one line per metric with
// its unit, and ends with a one-line JSON summary:
//
//	bash bench/run.sh --workload ingest --seed 1 --seconds 25 --trace 0
//
// Workloads: ingest, serve-miss, serve-hit, train. With -trace 1 the run
// replays the workload's inputs through the layer calls with spans on,
// writes the spans to -spans, and reports per-layer metrics instead of
// end-to-end ones. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"time"
)

// endToEnd and perLayer are the metric names and units BENCHMARK.json
// declares; a run reports every one of the set it was asked for.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"throughput_per_s", "1/s"},
	{"p50_ms", "ms"},
}

var perLayer = []metricDef{
	{"wasm.decode_us", "us"},
	{"wasm.strict_decode_us", "us"},
	{"dwarf.read_us", "us"},
	{"ingest.load_us", "us"},
	{"extract.us_per_elem", "us"},
	{"extract.tokens_per_elem", "count"},
	{"bpe.us_per_elem", "us"},
	{"bpe.subwords_per_elem", "count"},
	{"seq2seq.ms_per_search", "ms"},
	{"seq2seq.f32_ms_per_search", "ms"},
	{"seq2seq.searches_per_call", "count"},
	{"seq2seq.out_tokens_per_search", "count"},
	{"seq2seq.decode_share", "ratio"},
	{"seq2seq.allocs_per_search", "count"},
	{"seq2seq.kb_per_search", "KiB"},
	{"report.json_us_per_binary", "us"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.batch_mean", "count"},
	{"server.batch_queue_ms", "ms"},
	{"server.inference_ms_per_elem", "ms"},
	{"server.request_ms", "ms"},
	{"server.rejected", "count"},
	{"server.timeouts", "count"},
	{"server.cpu_ms_per_req", "ms"},
	{"server.startup_s", "s"},
	{"server.peak_rss_mb", "MiB"},
	{"pipeline.dataset_s", "s"},
	{"pipeline.generate_ms_per_pkg", "ms"},
	{"pipeline.compile_ms_per_file", "ms"},
	{"pipeline.extract_ms_per_bin", "ms"},
	{"bpe.learn_s", "s"},
	{"train.shard_ms_per_step", "ms"},
	{"train.merge_ms_per_step", "ms"},
	{"train.serial_share", "ratio"},
	{"train.valid_s_per_epoch", "s"},
	{"loadgen.late_ms_p95", "ms"},
	{"trace.overhead_pct", "%"},
	{"trace.self_sum_ratio", "ratio"},
}

type metricDef struct{ Name, Unit string }

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// env is one benchmark run: its settings, where it builds and writes,
// and what it has measured so far.
type env struct {
	workload  string
	seed      int64
	seconds   float64
	short     bool
	root      string // repository root (holds go.mod)
	build     string // scratch directory for models, inputs and logs
	snowwhite string // server binary built from the repository
	nproc     int
	out       io.Writer

	attempted, failed int
	metrics           map[string]metricValue
}

func (e *env) info(format string, args ...any) {
	fmt.Fprintf(e.out, "# "+format+"\n", args...)
}

// metric records one measurement and prints it as a line.
func (e *env) metric(name string, v float64, unit string) {
	e.metrics[name] = metricValue{v, unit}
	fmt.Fprintf(e.out, "%s %s %.6g %s\n", e.workload, name, v, unit)
}

// fail records n failed operations with the reason.
func (e *env) fail(n int, format string, args ...any) {
	if n <= 0 {
		return
	}
	e.failed += n
	e.info("FAIL (%d): "+format, append([]any{n}, args...)...)
}

// setup runs step once untimed, to load code and files and grow the heap
// to its working size, then reps times more, each after a full garbage
// collection so that none pays for the garbage of the one before. It
// reports the median of the timed repetitions as setup_s; the last
// repetition's state is what the workload uses.
func (e *env) setup(reps int, step func(last bool) error) error {
	if e.short {
		reps = 1
	}
	var times []float64
	for r := -1; r < reps; r++ {
		runtime.GC()
		t := time.Now()
		if err := step(r == reps-1); err != nil {
			return err
		}
		if r >= 0 {
			times = append(times, time.Since(t).Seconds())
		}
	}
	e.metric("setup_s", median(times), "s")
	return nil
}

// latencies reports p50_ms and prints the p90; pct returns a percentile
// in ms and whether enough samples lie beyond it. samples gives the
// sample count, printed with the p90 and in the warning printed when too
// few samples lie beyond a percentile.
func (e *env) latencies(samples string, pct func(q float64) (float64, bool)) {
	p50, ok := pct(0.5)
	if !ok {
		e.info("p50 rests on fewer than %d samples beyond it (%s)", minBeyond, samples)
	}
	e.metric("p50_ms", p50, "ms")
	p90, ok := pct(0.9)
	if !ok {
		e.info("p90 rests on fewer than %d samples beyond it (%s)", minBeyond, samples)
	}
	e.info("p90 %.4g ms over %s", p90, samples)
}

func (e *env) duration(share float64) time.Duration {
	return time.Duration(e.seconds * share * float64(time.Second))
}

var workloads = map[string]func(*env) error{
	"ingest":     (*env).runIngest,
	"serve-miss": (*env).runServeMiss,
	"serve-hit":  (*env).runServeHit,
	"train":      (*env).runTrain,
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	e := &env{out: stdout, metrics: map[string]metricValue{}, nproc: runtime.NumCPU()}
	fs.StringVar(&e.workload, "workload", "", "ingest, serve-miss, serve-hit or train")
	fs.Int64Var(&e.seed, "seed", 1, "input seed")
	fs.Float64Var(&e.seconds, "seconds", 25, "measurement length of one run")
	trace := fs.Int("trace", 0, "1 replays the inputs with spans on and reports per-layer metrics")
	spans := fs.String("spans", "", "span output file for -trace 1 (default <build>/spans-<workload>.json)")
	fs.StringVar(&e.root, "root", ".", "repository root")
	fs.StringVar(&e.build, "build", "", "scratch directory (default <root>/.bench_build)")
	fs.StringVar(&e.snowwhite, "snowwhite", "", "snowwhite binary built from the root (default <build>/snowwhite)")
	fs.BoolVar(&e.short, "short", false, "tiny sizes, for the smoke test")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	runW, ok := workloads[e.workload]
	if !ok || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "bench: need -workload ingest|serve-miss|serve-hit|train and -trace 0|1\n")
		return 2
	}
	if err := e.init(); err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	e.provenance()
	want := endToEnd
	var err error
	if *trace == 1 {
		want = perLayer
		if *spans == "" {
			*spans = filepath.Join(e.build, "spans-"+e.workload+".json")
		}
		err = e.runTraced(*spans)
	} else {
		err = runW(e)
	}
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	return e.finish(want, stderr)
}

// init resolves paths and refuses to run outside a repository checkout.
func (e *env) init() error {
	root, err := filepath.Abs(e.root)
	if err != nil {
		return err
	}
	e.root = root
	for _, p := range []string{"go.mod", "internal", "cmd/snowwhite"} {
		if _, err := os.Stat(filepath.Join(root, p)); err != nil {
			return fmt.Errorf("%s is not the repository root: %w", root, err)
		}
	}
	if e.build == "" {
		e.build = filepath.Join(root, ".bench_build")
	}
	if e.snowwhite == "" {
		e.snowwhite = filepath.Join(e.build, "snowwhite")
	}
	if _, err := os.Stat(e.snowwhite); err != nil {
		return fmt.Errorf("server binary: %w (build it with bench/run.sh)", err)
	}
	return os.MkdirAll(e.build, 0o755)
}

// provenance prints the facts a reader needs to compare two runs.
func (e *env) provenance() {
	e.info("workload %s", e.workload)
	e.info("seed %d", e.seed)
	e.info("nproc %d GOMAXPROCS %d %s", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
	e.info("cpu %s", cpuModel())
	commit := "unknown (not a git checkout)"
	// Only the root's own .git: git would otherwise search the parent
	// directories for a repository that is not this one.
	if _, err := os.Stat(filepath.Join(e.root, ".git")); err == nil {
		if out, err := exec.Command("git", "-C", e.root, "rev-parse", "HEAD").Output(); err == nil {
			commit = strings.TrimSpace(string(out))
		}
	}
	e.info("commit %s", commit)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// finish checks that every wanted metric was measured and prints the
// summary line.
func (e *env) finish(want []metricDef, stderr io.Writer) int {
	sum := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{e.failed == 0, e.attempted, e.failed, map[string]metricValue{}}
	var missing []string
	for _, m := range want {
		v, ok := e.metrics[m.Name]
		if !ok || v.Unit != m.Unit {
			missing = append(missing, m.Name)
			continue
		}
		sum.Metrics[m.Name] = v
	}
	if len(missing) > 0 || e.attempted < 1 {
		fmt.Fprintln(stderr, "bench:", errors.New("not measured: "+strings.Join(missing, ", ")))
		return 1
	}
	buf, err := json.Marshal(sum)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintf(e.out, "%s\n", buf)
	return 0
}
