package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, q3 := quartiles([]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1})
	if q1 != 2.75 || q3 != 8.25 {
		t.Fatalf("quartiles = %v, %v; want 2.75, 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, q3 := quartiles([]float64{3, 1, 2}); q1 != 1 || q3 != 3 {
		t.Fatalf("quartiles of 3 = %v, %v; want 1, 3", q1, q3)
	}
}

func series(base float64, step float64, n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = base + step*float64(i%5)
	}
	return out
}

func TestVerdicts(t *testing.T) {
	parent := series(100, 1, 10) // median 102, IQR 2.25
	for _, tc := range []struct {
		name   string
		base   []float64
		cand   []float64
		higher bool
		bound  float64
		want   string
	}{
		{"too few pairs", series(100, 1, 9), series(150, 1, 9), true, 0.1, "unresolved"},
		{"clear gain", parent, series(120, 1, 10), true, 0.1, "improved"},
		{"gain on a lower-is-better metric", parent, series(80, 1, 10), false, 0.1, "improved"},
		{"within noise", parent, series(100.5, 1, 10), true, 0.1, "unchanged"},
		{"small loss within bound", parent, series(95, 1, 10), true, 0.1, "unchanged"},
		{"loss beyond bound", parent, series(80, 1, 10), true, 0.1, "worse"},
		{"latency regression", parent, series(120, 1, 10), false, 0.1, "worse"},
		{"parent spread wider than bound", series(100, 20, 10), series(100, 20, 10), true, 0.1, "unresolved"},
		{"wide spread but every run better", series(100, 20, 10), series(200, 1, 10), true, 0.1, "improved"},
		{"no bound, no clear change", parent, series(101, 1, 10), true, -1, "unresolved"},
		{"no bound, clear loss", parent, series(80, 1, 10), true, -1, "worse"},
	} {
		if got := verdict(tc.base, tc.cand, tc.higher, tc.bound); got != tc.want {
			t.Errorf("%s: verdict = %s, want %s", tc.name, got, tc.want)
		}
	}
}

func TestReadRuns(t *testing.T) {
	dir := t.TempDir()
	run := "# workload ingest\ningest setup_s 1 s\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.5,"unit":"s"}}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "a.out"), []byte(run), 0o644); err != nil {
		t.Fatal(err)
	}
	rs, err := readRuns(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := rs["ingest"]["setup_s"]; len(got) != 1 || got[0] != 1.5 {
		t.Fatalf("readRuns = %v", rs)
	}
	bad := "# workload ingest\n" + `{"correct":false,"attempted":1,"failed":1,"metrics":{}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "b.out"), []byte(bad), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := readRuns(dir); err == nil {
		t.Fatal("a run with incorrect output was accepted")
	}
}
