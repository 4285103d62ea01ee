package ingest

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"

	"repro/internal/metrics"
)

// DirReport aggregates one report per binary under a directory, in
// path-sorted order, plus a corpus-wide eval summary when evaluation ran.
type DirReport struct {
	Schema   string    `json:"schema"`
	Binaries []*Report `json:"binaries"`
	// Eval merges every binary's labeled elements into one summary.
	Eval *EvalReport `json:"eval,omitempty"`
}

// Dir ingests every .wasm file under root through a bounded worker pool
// (workers <= 0 means one per binary, capped at 8). Binaries are
// discovered and reported in sorted relative-path order and each binary
// is ingested independently, so the output is byte-identical at any
// worker count. The workers share one prediction memo for the run
// (predMemo): a signature element whose model input the run has already
// decoded reuses those predictions, which are bitwise what decoding it
// again would give, so every binary's report equals Binary's on the
// same file.
func (ing *Ingester) Dir(root string, workers int) (*DirReport, error) {
	var paths []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(d.Name(), ".wasm") {
			paths = append(paths, path)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("ingest: no .wasm files under %s", root)
	}
	sort.Strings(paths)

	if workers <= 0 || workers > len(paths) {
		workers = len(paths)
	}
	if workers > 8 {
		workers = 8
	}

	type scored struct {
		rep *Report
		acc *metrics.Accuracy
	}
	results := make([]scored, len(paths))
	memo := newPredMemo()
	jobs := make(chan int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				rel, rerr := filepath.Rel(root, paths[i])
				if rerr != nil {
					rel = paths[i]
				}
				name := filepath.ToSlash(rel)
				data, rerr := os.ReadFile(paths[i])
				if rerr != nil {
					results[i] = scored{rep: &Report{Schema: Schema, Binary: name, Error: rerr.Error()}}
					continue
				}
				rep, acc := ing.binaryScored(name, data, memo)
				results[i] = scored{rep: rep, acc: acc}
			}
		}()
	}
	for i := range paths {
		jobs <- i
	}
	close(jobs)
	wg.Wait()

	out := &DirReport{Schema: Schema}
	var agg *metrics.Accuracy
	for _, r := range results {
		out.Binaries = append(out.Binaries, r.rep)
		if r.acc != nil {
			if agg == nil {
				agg = &metrics.Accuracy{}
			}
			agg.Merge(r.acc)
		}
	}
	if agg != nil {
		out.Eval = evalReport(agg)
	}
	return out, nil
}
