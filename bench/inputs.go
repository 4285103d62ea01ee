package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/cc"
	"repro/internal/core"
	"repro/internal/corpus"
	"repro/internal/split"
)

// Input streams: each consumer of randomness derives its own corpus seed
// from (seed, stream), so no two inputs of one run share a random stream.
const (
	streamIngest = iota + 1
	streamServeMiss
	streamServeHit
	streamTrain
)

// subSeed mixes the run seed and a stream id (splitmix64 finalizer).
func subSeed(seed int64, stream uint64) int64 {
	z := uint64(seed)*0x9e3779b97f4a7c15 + stream*0xd1b54a32d192ed03
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4b9b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return int64(z ^ (z >> 31))
}

// binary is one generated wasm object file.
type binary struct {
	Name string
	Data []byte
	// Elems holds, per defined function, its signature elements: the
	// parameters plus the return value, if any.
	Elems []int
	DWARF bool
}

// elements is the binary's total signature elements.
func (b *binary) elements() int {
	n := 0
	for _, e := range b.Elems {
		n += e
	}
	return n
}

// genBinaries compiles packages of the corpus described by opts, in
// package order, until n binaries exist; every other binary carries
// DWARF. It also returns the SHA-256 of the binaries' bytes.
func genBinaries(opts corpus.Options, n int) ([]binary, string, error) {
	lib := corpus.NewLibrary(opts.Seed)
	h := sha256.New()
	var out []binary
	for pi := 0; len(out) < n; pi++ {
		for _, f := range corpus.GeneratePackage(opts, lib, pi).Files {
			if len(out) == n {
				break
			}
			debug := len(out)%2 == 0
			obj, err := cc.Compile(f.Source, cc.Options{FileName: f.Name, Debug: debug})
			if err != nil {
				return nil, "", fmt.Errorf("compile %s: %w", f.Name, err)
			}
			h.Write(obj.Binary)
			m := obj.Module
			elems := make([]int, len(m.Funcs))
			for i, fn := range m.Funcs {
				sig := m.Types[fn.TypeIdx]
				elems[i] = len(sig.Params)
				if len(sig.Results) == 1 {
					elems[i]++
				}
			}
			out = append(out, binary{
				Name:  fmt.Sprintf("%04d_%s.wasm", len(out), strings.TrimSuffix(f.Name, ".c")),
				Data:  obj.Binary,
				Elems: elems,
				DWARF: debug,
			})
		}
	}
	return out, hex.EncodeToString(h.Sum(nil)), nil
}

// writeDir replaces dir with one file per binary.
func writeDir(dir string, bins []binary) error {
	if err := os.RemoveAll(dir); err != nil {
		return err
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, b := range bins {
		if err := os.WriteFile(filepath.Join(dir, b.Name), b.Data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// modelConfig is the benchmark model: the default architecture trained
// on a fixed corpus (independent of the run seed), so every run, seed and
// workload serves the same weights.
func modelConfig(short bool) core.Config {
	cfg := core.DefaultConfig()
	cfg.Corpus.Seed = 1
	cfg.Corpus.Packages = 40
	cfg.Model.Epochs = 1
	cfg.Split = split.Fractions{Valid: 0.1, Test: 0.1}
	cfg.Parallelism = runtime.NumCPU()
	if short {
		shrink(&cfg)
	}
	return cfg
}

// shrink turns a config into the tiny one -short runs use.
func shrink(cfg *core.Config) {
	cfg.Corpus.Packages = 6
	cfg.Model.Hidden, cfg.Model.Embed, cfg.Model.EncLayers = 16, 16, 1
	cfg.Model.MaxSrcLen = 48
	cfg.BPESrcVocab = 100
}

// sourceKey hashes the sources the model depends on (go.mod and every
// non-test Go file under internal/), so a cached model is retrained
// whenever the code that trains or serializes it changes.
func sourceKey(root string, short bool) (string, error) {
	var files []string
	err := filepath.WalkDir(filepath.Join(root, "internal"), func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && strings.HasSuffix(p, ".go") && !strings.HasSuffix(p, "_test.go") {
			files = append(files, p)
		}
		return nil
	})
	if err != nil {
		return "", err
	}
	sort.Strings(files)
	h := sha256.New()
	fmt.Fprintf(h, "%+v\n", modelConfig(short))
	for _, f := range append([]string{filepath.Join(root, "go.mod")}, files...) {
		b, err := os.ReadFile(f)
		if err != nil {
			return "", err
		}
		fmt.Fprintf(h, "%s %d\n", f[len(root):], len(b))
		h.Write(b)
	}
	return hex.EncodeToString(h.Sum(nil))[:16], nil
}

// ensureModel returns the path of the benchmark model, training and
// caching it under the build directory on first use. Training is
// preparation, like compiling: it is reported but not part of any
// workload's set-up time.
func ensureModel(e *env) (string, error) {
	key, err := sourceKey(e.root, e.short)
	if err != nil {
		return "", fmt.Errorf("hash sources: %w", err)
	}
	path := filepath.Join(e.build, "model-"+key+".bin")
	if _, err := os.Stat(path); err == nil {
		return path, nil
	}
	start := time.Now()
	p, err := core.TrainPredictor(modelConfig(e.short), nil)
	if err != nil {
		return "", fmt.Errorf("train benchmark model: %w", err)
	}
	tmp := path + ".tmp"
	if err := core.SavePredictor(p, tmp); err != nil {
		return "", err
	}
	if err := os.Rename(tmp, path); err != nil {
		return "", err
	}
	e.info("prepare: trained benchmark model %s in %.1fs", filepath.Base(path), time.Since(start).Seconds())
	return path, nil
}
