package main

import (
	"sync"
	"sync/atomic"
	"time"
)

// clock is the run's monotonic time base: every timestamp the benchmark
// records is a duration since the run started.
type clock struct{ t0 time.Time }

func newClock() *clock { return &clock{t0: time.Now()} }

func (c *clock) now() time.Duration { return time.Since(c.t0) }

// recorder collects spans. Each goroutine appends to its own slice (a
// spanLog) and hands it over once when it finishes, so recording a span
// never takes a lock. A nil *recorder disables tracing: every method is a
// no-op and allocates nothing.
type recorder struct {
	clk  *clock
	next atomic.Uint64

	mu    sync.Mutex
	spans []span
}

func newRecorder(clk *clock) *recorder { return &recorder{clk: clk} }

func (r *recorder) id() uint64 {
	if r == nil {
		return 0
	}
	return r.next.Add(1)
}

// merge adds a finished goroutine's spans.
func (r *recorder) merge(ss []span) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.spans = append(r.spans, ss...)
	r.mu.Unlock()
}

// all returns every merged span. Call after the goroutines finished.
func (r *recorder) all() []span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.spans
}

// real builds a span for one call that ran over [start, end].
func (r *recorder) real(name string, parent, trace uint64, start, end time.Duration) span {
	return span{ID: r.id(), Parent: parent, Trace: trace, Name: name, Start: start, End: end, N: 1}
}

// agg builds an aggregate span standing for n calls of total duration d.
func (r *recorder) agg(name string, parent, trace uint64, n int, d time.Duration) span {
	return span{ID: r.id(), Parent: parent, Trace: trace, Name: name, Dur: d, N: n, Agg: true}
}
