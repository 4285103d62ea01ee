package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer. Spans of one binary or request
// share Req; a lane root (Parent 0) covers one worker's whole replay, so
// the self times of a lane's tree sum to the lane's wall time.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Req    int    `json:"req"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run writes them out.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its id.
func (t *tracer) begin(name string, parent, req int) int {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: now, End: -1})
	return len(t.spans)
}

// end closes span id.
func (t *tracer) end(id int) {
	now := time.Since(t.t0).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].End = now
	t.mu.Unlock()
}

// do runs f inside a span named name.
func (t *tracer) do(name string, parent, req int, f func()) {
	id := t.begin(name, parent, req)
	f()
	t.end(id)
}

func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

func (t *tracer) write(path, workload string) error {
	buf, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Spans    []span `json:"spans"`
	}{workload, t.snapshot()})
	if err != nil {
		return err
	}
	return os.WriteFile(path, buf, 0o644)
}

// selfTimes returns, per span name, the summed self time in seconds: each
// span's duration minus the part of its interval its children cover.
// roots is the summed duration of the lane roots, the wall time the self
// times must account for.
func selfTimes(spans []span) (self map[string]float64, roots float64) {
	children := map[int][][2]int64{}
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	self = map[string]float64{}
	for _, s := range spans {
		d := s.End - s.Start
		if s.Parent == 0 {
			roots += float64(d) / 1e9
		}
		self[s.Name] += float64(d-covered(children[s.ID], s.Start, s.End)) / 1e9
	}
	return self, roots
}

// covered is the length of the union of ivs clipped to [lo, hi].
func covered(ivs [][2]int64, lo, hi int64) int64 {
	sort.Slice(ivs, func(i, j int) bool { return ivs[i][0] < ivs[j][0] })
	var total int64
	cur := lo
	for _, iv := range ivs {
		a, b := max(iv[0], cur), min(iv[1], hi)
		if b > a {
			total += b - a
			cur = b
		}
	}
	return total
}
