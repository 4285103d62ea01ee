// Command benchdiff compares two sets of benchmark runs of the same
// workloads — a parent commit's and a change's — metric by metric, using
// the bounds in BENCHMARK.json:
//
//	go run ./benchdiff -spec ../BENCHMARK.json -base runs/parent -new runs/change
//
// Each directory holds the standard output of bench runs, one file per
// run. Runs pair up in file-name order, so name them in the order they
// were made and alternate which side runs first. For every (workload,
// metric) it prints both sides' median and quartiles and a verdict:
//
//   - improved: the change wins at least 9 of 10 pairs and the medians
//     differ by more than the parent's interquartile range;
//   - worse: the change's median is worse than the parent's by more than
//     the metric's bound (for per-layer metrics, which have no bound: the
//     change loses 9 of 10 pairs by more than the parent's spread);
//   - unresolved: fewer than 10 pairs, or the parent's own spread is wider
//     than the bound and the runs overlap;
//   - unchanged: otherwise.
//
// It exits with status 1 when any end-to-end metric is worse.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// spec is the part of BENCHMARK.json benchdiff reads.
type spec struct {
	EndToEnd []metricSpec `json:"end_to_end"`
	PerLayer []metricSpec `json:"per_layer"`
}

type metricSpec struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound"`
}

// minPairs is the fewest alternating pairs a verdict other than
// unresolved rests on.
const minPairs = 10

// quartiles returns the first and third quartile the way Python's
// statistics.quantiles(xs, n=4) computes them (the "exclusive" method).
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	ld := len(d)
	if ld == 1 {
		return d[0], d[0]
	}
	m := ld + 1
	at := func(i int) float64 {
		j := i * m / 4
		j = max(1, min(j, ld-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// verdict compares base (parent) and cand (change) runs of one metric.
// bound < 0 means the metric has none.
func verdict(base, cand []float64, higherBetter bool, bound float64) string {
	pairs := min(len(base), len(cand))
	if pairs < minPairs {
		return "unresolved"
	}
	better := func(a, b float64) bool {
		if higherBetter {
			return a > b
		}
		return a < b
	}
	wins, losses := 0, 0
	for i := 0; i < pairs; i++ {
		switch {
		case better(cand[i], base[i]):
			wins++
		case better(base[i], cand[i]):
			losses++
		}
	}
	mb, mc := median(base), median(cand)
	q1, q3 := quartiles(base)
	iqr := q3 - q1
	beyond := math.Abs(mc-mb) > iqr
	if 10*wins >= 9*pairs && beyond && better(mc, mb) {
		return "improved"
	}
	if bound < 0 {
		if 10*losses >= 9*pairs && beyond && better(mb, mc) {
			return "worse"
		}
		return "unresolved"
	}
	if iqr > bound*math.Abs(mb) {
		if allBetter(cand, base, better) {
			return "unchanged"
		}
		return "unresolved"
	}
	worseBy := (mc - mb) / math.Abs(mb)
	if higherBetter {
		worseBy = -worseBy
	}
	if worseBy > bound {
		return "worse"
	}
	return "unchanged"
}

// allBetter reports whether every run in a beats every run in b.
func allBetter(a, b []float64, better func(x, y float64) bool) bool {
	for _, x := range a {
		for _, y := range b {
			if !better(x, y) {
				return false
			}
		}
	}
	return true
}

// runSet maps workload → metric → values, in run (file-name) order.
type runSet map[string]map[string][]float64

// readRuns parses every file in dir: the "# workload" line names the
// workload, the last line is the run's JSON summary.
func readRuns(dir string) (runSet, error) {
	files, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	out := runSet{}
	for _, f := range files {
		if st, err := os.Stat(f); err != nil || st.IsDir() {
			continue
		}
		w, sum, err := readRun(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		if out[w] == nil {
			out[w] = map[string][]float64{}
		}
		for name, m := range sum.Metrics {
			out[w][name] = append(out[w][name], m.Value)
		}
	}
	return out, nil
}

type summary struct {
	Correct bool `json:"correct"`
	Metrics map[string]struct {
		Value float64 `json:"value"`
	} `json:"metrics"`
}

func readRun(path string) (string, summary, error) {
	var sum summary
	f, err := os.Open(path)
	if err != nil {
		return "", sum, err
	}
	defer f.Close()
	workload, last := "", ""
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		line := sc.Text()
		if w, ok := strings.CutPrefix(line, "# workload "); ok {
			workload = w
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil {
		return "", sum, err
	}
	if workload == "" {
		return "", sum, fmt.Errorf("no \"# workload\" line")
	}
	if err := json.Unmarshal([]byte(last), &sum); err != nil {
		return "", sum, fmt.Errorf("last line is not a run summary: %w", err)
	}
	if !sum.Correct {
		return "", sum, fmt.Errorf("run reported incorrect output")
	}
	return workload, sum, nil
}

func main() {
	specPath := flag.String("spec", "BENCHMARK.json", "benchmark definition with the metrics' bounds")
	baseDir := flag.String("base", "", "directory of the parent's runs")
	newDir := flag.String("new", "", "directory of the change's runs")
	flag.Parse()
	if *baseDir == "" || *newDir == "" {
		fmt.Fprintln(os.Stderr, "benchdiff: need -base and -new")
		os.Exit(2)
	}
	buf, err := os.ReadFile(*specPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	var sp spec
	if err := json.Unmarshal(buf, &sp); err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	base, err := readRuns(*baseDir)
	if err == nil {
		var cand runSet
		if cand, err = readRuns(*newDir); err == nil {
			os.Exit(report(sp, base, cand))
		}
	}
	fmt.Fprintln(os.Stderr, "benchdiff:", err)
	os.Exit(2)
}

// report prints one row per (workload, metric) and returns the exit
// status: 1 when an end-to-end metric got worse.
func report(sp spec, base, cand runSet) int {
	workloads := make([]string, 0, len(base))
	for w := range base {
		workloads = append(workloads, w)
	}
	sort.Strings(workloads)
	status := 0
	fmt.Printf("%-11s %-30s %-34s %-34s %s\n", "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "verdict")
	for _, w := range workloads {
		for _, group := range []struct {
			metrics  []metricSpec
			endToEnd bool
		}{{sp.EndToEnd, true}, {sp.PerLayer, false}} {
			for _, m := range group.metrics {
				b, c := base[w][m.Name], cand[w][m.Name]
				if len(b) == 0 || len(c) == 0 {
					continue
				}
				bound := -1.0
				if m.Bound != nil {
					bound = *m.Bound
				}
				v := verdict(b, c, m.Better == "higher", bound)
				if v == "worse" && group.endToEnd {
					status = 1
				}
				fmt.Printf("%-11s %-30s %-34s %-34s %s\n", w, m.Name+" ["+m.Unit+"]", describe(b), describe(c), v)
			}
		}
	}
	return status
}

func describe(xs []float64) string {
	q1, q3 := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] n=%d", median(xs), q1, q3, len(xs))
}
