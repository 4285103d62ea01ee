package main

import (
	"encoding/json"
	"math"
	"os"
	"sync"
	"testing"
	"time"
)

func TestPercentileNeedsTenBeyond(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	if v, ok := percentile(xs, 0.90); v != 90 || !ok {
		t.Fatalf("p90 of 1..100 = %v (ok %v), want 90 with 10 beyond", v, ok)
	}
	if _, ok := percentile(xs[:99], 0.90); ok {
		t.Fatal("p90 of 99 samples has only 9 beyond it but was accepted")
	}
	if v, ok := percentile(xs, 0.5); v != 50 || !ok {
		t.Fatalf("p50 = %v (ok %v)", v, ok)
	}
	if median([]float64{4, 1, 3, 2}) != 2.5 || median([]float64{3, 1, 2}) != 2 {
		t.Fatal("median wrong")
	}
	h := fineHistogram()
	for i := 1; i <= 100; i++ {
		h.Observe(float64(i) / 1000)
	}
	v, ok := histPercentile(h, 0.90)
	if !ok || v < 0.090 || v > 0.090*1.0002 {
		t.Fatalf("histogram p90 = %v (ok %v), want 0.090 within 0.02%%", v, ok)
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// A server that handles one request at a time, 20ms each, offered
	// 100 requests/s: the backlog grows by 10ms per request, and latency
	// measured from the due time must show it even though every request
	// was sent on time.
	var mu sync.Mutex
	out := openLoop(100, 10, func(int) bool {
		mu.Lock()
		defer mu.Unlock()
		time.Sleep(20 * time.Millisecond)
		return true
	})
	last := out[len(out)-1]
	if last.latency() < 100*time.Millisecond {
		t.Fatalf("last request latency %v, want the ~110ms backlog counted", last.latency())
	}
	for i, o := range out {
		if o.late() > 15*time.Millisecond {
			t.Errorf("request %d sent %v late", i, o.late())
		}
		if want := out[0].Due.Add(time.Duration(i) * 10 * time.Millisecond); !o.Due.Equal(want) {
			t.Errorf("request %d due at %v, want %v", i, o.Due, want)
		}
	}
}

func TestClosedLoopAndWindows(t *testing.T) {
	out := closedLoop(2, 50*time.Millisecond, func(i int) bool {
		time.Sleep(5 * time.Millisecond)
		return i%2 == 0
	})
	if len(out) < 4 {
		t.Fatalf("closed loop ran %d requests", len(out))
	}
	for i, o := range out {
		if o.late() != 0 {
			t.Fatal("closed-loop requests are due when sent")
		}
		if o.Index < 0 || o.Index >= len(out) {
			t.Fatalf("outcome %d has request number %d", i, o.Index)
		}
	}

	t0 := time.Now()
	at := func(ms int) time.Time { return t0.Add(time.Duration(ms) * time.Millisecond) }
	req := func(i, due, end int, ok bool) outcome {
		return outcome{Index: i, Due: at(due), Start: at(due), End: at(end), OK: ok}
	}
	synth := []outcome{
		req(0, 0, 10, true),     // window 1
		req(1, 0, 200, true),    // window 1, over the limit
		req(2, 0, 10, false),    // window 1, failed
		req(3, 500, 1500, true), // window 2, over the limit
		req(4, 1400, 1450, true),
		req(5, 1600, 1700, true), // window 2, exactly at the limit
		req(6, 2000, 2050, true), // the short tail window: left out
	}
	rs := []reading{{at(0), 10}, {at(1000), 10.6}, {at(2000), 12.1}, {at(2100), 12.3}}
	units := func(i int) int { return i + 1 }
	rates, cpu := windowed(synth, 100*time.Millisecond, rs, units)
	if len(rates) != 2 || rates[0] != 1 || rates[1] != 11 {
		t.Fatalf("window goodput = %v, want [1 11] units/s", rates)
	}
	// Window 1 ended 1+2+3 units on 0.6 CPU seconds, window 2 ended
	// 4+5+6 on 1.5.
	if len(cpu) != 2 || math.Abs(cpu[0]-0.1) > 1e-12 || math.Abs(cpu[1]-0.1) > 1e-12 {
		t.Fatalf("window CPU per unit = %v, want [0.1 0.1]", cpu)
	}

	stop := sampleCPU(10*time.Millisecond, func() (float64, error) { return 1, nil })
	time.Sleep(35 * time.Millisecond)
	got, err := stop()
	if err != nil || len(got) < 3 {
		t.Fatalf("sampler took %d readings (err %v), want at least 3", len(got), err)
	}
	for i := 1; i < len(got); i++ {
		if got[i].At.Before(got[i-1].At) {
			t.Fatal("readings out of order")
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "lane", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 40},
		{ID: 3, Parent: 1, Name: "b", Start: 40, End: 60},
		{ID: 4, Parent: 2, Name: "c", Start: 20, End: 30},
		{ID: 5, Parent: 3, Name: "c", Start: 50, End: 70}, // runs past its parent
		{ID: 6, Name: "lane", Start: 0, End: 50},
		{ID: 7, Parent: 6, Name: "a", Start: 0, End: 50},
	}
	self, roots := selfTimes(spans)
	want := map[string]float64{"lane": 50e-9, "a": 70e-9, "b": 10e-9, "c": 30e-9}
	for k, v := range want {
		if d := self[k] - v; d > 1e-15 || d < -1e-15 {
			t.Errorf("self[%s] = %v, want %v", k, self[k], v)
		}
	}
	if d := roots - 150e-9; d > 1e-15 || d < -1e-15 {
		t.Errorf("roots = %v, want 150ns", roots)
	}
	// Overlapping children are covered once.
	if c := covered([][2]int64{{10, 30}, {20, 40}, {50, 200}}, 0, 100); c != 80 {
		t.Errorf("covered = %d, want 80", c)
	}
}

func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	buf, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []metricDef             `json:"end_to_end"`
		PerLayer  []metricDef             `json:"per_layer"`
	}
	if err := json.Unmarshal(buf, &spec); err != nil {
		t.Fatal(err)
	}
	for _, set := range []struct{ got, want []metricDef }{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(set.got) != len(set.want) {
			t.Fatalf("BENCHMARK.json lists %d metrics, the benchmark %d", len(set.got), len(set.want))
		}
		for i := range set.got {
			if set.got[i] != set.want[i] {
				t.Errorf("metric %d: BENCHMARK.json %v, benchmark %v", i, set.got[i], set.want[i])
			}
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(workloads))
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("workload %s is not implemented", w.Name)
		}
	}
}
