package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// outcome is one request as the load generator saw it. In an open loop
// Due is when the schedule said to send it; in a closed loop Due equals
// Start.
type outcome struct {
	Index           int // the request number handed to fire
	Due, Start, End time.Time
	OK              bool
}

// latency is measured from the due time, so a stall that delays later
// sends counts against every request it delayed.
func (o outcome) latency() time.Duration { return o.End.Sub(o.Due) }

// late is how far behind schedule the generator fired the request.
func (o outcome) late() time.Duration { return o.Start.Sub(o.Due) }

// openLoop sends n requests at a fixed rate (requests per second),
// independent of completions: request i is due at i/rate after the start
// and is sent from its own goroutine. It returns once every request has
// finished.
func openLoop(rate float64, n int, fire func(i int) bool) []outcome {
	out := make([]outcome, n)
	interval := time.Duration(float64(time.Second) / rate)
	t0 := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		due := t0.Add(time.Duration(i) * interval)
		if d := time.Until(due); d > 0 {
			time.Sleep(d)
		}
		wg.Add(1)
		go func(i int, due time.Time) {
			defer wg.Done()
			start := time.Now()
			ok := fire(i)
			out[i] = outcome{Index: i, Due: due, Start: start, End: time.Now(), OK: ok}
		}(i, due)
	}
	wg.Wait()
	return out
}

// closedLoop runs clients that each send their next request only after
// the previous one completed, until d has elapsed. Request numbers are
// handed out in order across clients.
func closedLoop(clients int, d time.Duration, fire func(i int) bool) []outcome {
	var (
		mu   sync.Mutex
		out  []outcome
		next atomic.Int64
		wg   sync.WaitGroup
	)
	t0 := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for time.Since(t0) < d {
				i := int(next.Add(1) - 1)
				start := time.Now()
				ok := fire(i)
				o := outcome{Index: i, Due: start, Start: start, End: time.Now(), OK: ok}
				mu.Lock()
				out = append(out, o)
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return out
}

// msOf converts outcomes to milliseconds with f.
func msOf(os []outcome, f func(outcome) time.Duration) []float64 {
	out := make([]float64, len(os))
	for i, o := range os {
		out[i] = float64(f(o)) / float64(time.Millisecond)
	}
	return out
}

// reading is one sample of a process's cumulative CPU seconds.
type reading struct {
	At  time.Time
	CPU float64
}

// sampleCPU reads read() now and then every interval until stop is
// called; stop takes a last reading and returns them all, or the first
// error a reading met.
func sampleCPU(interval time.Duration, read func() (float64, error)) (stop func() ([]reading, error)) {
	var (
		mu    sync.Mutex
		out   []reading
		first error
	)
	take := func() {
		at := time.Now()
		cpu, err := read()
		mu.Lock()
		defer mu.Unlock()
		if err != nil && first == nil {
			first = err
		}
		out = append(out, reading{at, cpu})
	}
	take()
	done, exited := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				take()
			case <-done:
				return
			}
		}
	}()
	return func() ([]reading, error) {
		close(done)
		<-exited
		take()
		return out, first
	}
}

// windowed splits a phase at its CPU readings and returns, for each
// window between two consecutive readings, the goodput (units of work of
// the requests that ended in the window, succeeded and met limit, per
// second) and the CPU seconds spent per unit of work ended in the window.
// Medians over the windows are steadier than whole-phase means on a
// shared host, whose speed comes and goes in bursts. Windows shorter than
// half the first one (the tail after the last tick) and windows that
// ended no work are left out.
func windowed(os []outcome, limit time.Duration, rs []reading, units func(i int) int) (rates, cpuPerUnit []float64) {
	if len(rs) < 2 {
		return nil, nil
	}
	full := rs[1].At.Sub(rs[0].At)
	for w := 1; w < len(rs); w++ {
		from, to := rs[w-1].At, rs[w].At
		if to.Sub(from) < full/2 {
			continue
		}
		good, done := 0, 0
		for _, o := range os {
			if o.End.Before(from) || !o.End.Before(to) {
				continue
			}
			done += units(o.Index)
			if o.OK && o.latency() <= limit {
				good += units(o.Index)
			}
		}
		if done == 0 {
			continue
		}
		rates = append(rates, float64(good)/to.Sub(from).Seconds())
		cpuPerUnit = append(cpuPerUnit, (rs[w].CPU-rs[w-1].CPU)/float64(done))
	}
	return rates, cpuPerUnit
}
