package main

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"
)

// The benchmark's own arithmetic: percentiles with a support rule,
// freshness matching against dedupe watermarks, self time from nested
// spans, open-loop lateness and the Theorem-4 cost fit. Everything here is
// pure so stats_test.go can pin it.

// percentileLadder lists the percentiles the benchmark reports, in
// hundredths of a percent (so 9990 is p99.9) to keep the support rule in
// integer arithmetic.
var percentileLadder = []int{5000, 9000, 9500, 9900, 9990, 9999}

// minBeyond is how many samples must lie strictly above a percentile
// before the benchmark prints it.
const minBeyond = 10

// rankOf returns the 1-based nearest rank of percentile p (hundredths of a
// percent) in n sorted samples: ceil(p·n/10000).
func rankOf(p, n int) int {
	return (p*n + 9999) / 10000
}

// supported reports whether n samples hold at least minBeyond samples
// beyond percentile p.
func supported(p, n int) bool {
	return n > 0 && n-rankOf(p, n) >= minBeyond
}

// highestSupported returns the highest ladder percentile n samples
// support, or false when even the median is unsupported.
func highestSupported(n int) (int, bool) {
	best, ok := 0, false
	for _, p := range percentileLadder {
		if supported(p, n) {
			best, ok = p, true
		}
	}
	return best, ok
}

// errUnsupported reports a percentile the samples cannot support.
var errUnsupported = errors.New("percentile not supported by the sample count")

// percentile returns the nearest-rank percentile p (hundredths of a
// percent) of xs, refusing one with fewer than minBeyond samples beyond
// it. xs need not be sorted; it is not modified.
func percentile(xs []float64, p int) (float64, error) {
	if !supported(p, len(xs)) {
		return 0, fmt.Errorf("p%s of %d samples: %w", pctName(p), len(xs), errUnsupported)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rankOf(p, len(s))-1], nil
}

// pctName renders a ladder percentile: 5000 → "50", 9990 → "99.9".
func pctName(p int) string {
	if p%100 == 0 {
		return fmt.Sprintf("%d", p/100)
	}
	if p%10 == 0 {
		return fmt.Sprintf("%.1f", float64(p)/100)
	}
	return fmt.Sprintf("%.2f", float64(p)/100)
}

// dist summarizes a latency sample: median, the highest supported
// percentile and the count.
type dist struct {
	N       int
	Median  float64
	TopP    int // ladder percentile, 0 when unsupported
	TopV    float64
	Present bool
}

func summarize(xs []float64) dist {
	d := dist{N: len(xs)}
	if len(xs) == 0 {
		return d
	}
	d.Present = true
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	d.Median = s[rankOf(5000, len(s))-1]
	if p, ok := highestSupported(len(s)); ok {
		d.TopP, d.TopV = p, s[rankOf(p, len(s))-1]
	}
	return d
}

func (d dist) String() string {
	if !d.Present {
		return "n=0"
	}
	if d.TopP == 0 {
		return fmt.Sprintf("median %.4g (n=%d, no percentile supported)", d.Median, d.N)
	}
	return fmt.Sprintf("median %.4g, p%s %.4g (n=%d)", d.Median, pctName(d.TopP), d.TopV, d.N)
}

// median of a small slice (setup repetitions); 0 for an empty one.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// --- freshness -------------------------------------------------------------

// pubMark is one published snapshot: when it became visible to readers
// and, per site index, the dedupe watermark (highest applied seq) read
// under Server.Snapshot when its mixture was captured.
type pubMark struct {
	At time.Duration
	WM []uint64
}

// msgRef names one message a site sent: the site index and the
// per-connection sequence number Conn.Send stamped on it.
type msgRef struct {
	Site int
	Seq  uint64
}

// never marks a message no published snapshot ever contained.
const never = time.Duration(math.MaxInt64)

// matchWatermarks returns, per message, the visibility time of the first
// published snapshot whose watermark for the message's site covers its
// seq, or never. pubs must be in publish order; watermarks never go
// backwards, so the first covering snapshot is found by binary search.
func matchWatermarks(pubs []pubMark, msgs []msgRef) []time.Duration {
	out := make([]time.Duration, len(msgs))
	for i, m := range msgs {
		j := sort.Search(len(pubs), func(k int) bool {
			return m.Site < len(pubs[k].WM) && pubs[k].WM[m.Site] >= m.Seq
		})
		if j == len(pubs) {
			out[i] = never
		} else {
			out[i] = pubs[j].At
		}
	}
	return out
}

// chunkRec is one completed chunk at one site, in the site's chunk order.
// Created is when the record that closed the chunk was created (taken by
// a closed-loop feeder, or due in an open loop); Decided is when the
// call that fed it returned. Msgs index the visibility table: the
// messages the chunk produced.
type chunkRec struct {
	Site    int
	Created time.Duration
	Decided time.Duration
	Msgs    []int
}

// freshness returns, per chunk, the time from its closing record's
// creation until the served model reflected it, in milliseconds. A chunk
// is reflected once the site's decision was taken and every message the
// site produced up to and including that chunk is visible; a chunk that
// sent nothing (a fitting landmark chunk, Section 5.3's stability
// property) is therefore reflected as soon as its decision returns and
// the site's earlier messages are visible. Chunks must be listed in each
// site's chunk order. An invisible message is an error.
func freshness(chunks []chunkRec, vis []time.Duration) ([]float64, error) {
	latest := map[int]time.Duration{} // per site: latest visibility so far
	out := make([]float64, 0, len(chunks))
	for _, c := range chunks {
		at := latest[c.Site]
		for _, m := range c.Msgs {
			if vis[m] == never {
				return nil, fmt.Errorf("message %d of site %d never became visible", m, c.Site)
			}
			if vis[m] > at {
				at = vis[m]
			}
		}
		latest[c.Site] = at
		if c.Decided > at {
			at = c.Decided
		}
		out = append(out, float64(at-c.Created)/float64(time.Millisecond))
	}
	return out, nil
}

// --- open loop -------------------------------------------------------------

// dueAt is when request i of an open loop at rate per second, started at
// start, is due. Lateness is always timed from here, never from when the
// previous request finished, so a stall is charged to every request it
// delays.
func dueAt(start time.Duration, i int, rate float64) time.Duration {
	return start + time.Duration(float64(i)/rate*float64(time.Second))
}

// lateness returns how late each request ran, in milliseconds: its actual
// start minus its due time, clamped at zero.
func lateness(due, actual []time.Duration) []float64 {
	out := make([]float64, len(due))
	for i := range due {
		if l := actual[i] - due[i]; l > 0 {
			out[i] = float64(l) / float64(time.Millisecond)
		}
	}
	return out
}

// --- spans -----------------------------------------------------------------

// span is one timed call the benchmark made into a layer. Name is
// "<layer>.<call>"; Trace groups the spans of one chunk. A real span
// covers [Start, End] on the run's clock. An aggregate span (Agg) stands
// for N calls whose durations sum to Dur; its interval is not meaningful,
// and it is used where a real span per call would cost too much memory
// (records that close no chunk) or where the call ran elsewhere and was
// timed by replay (the receive side).
type span struct {
	ID     uint64        `json:"id"`
	Parent uint64        `json:"parent,omitempty"`
	Trace  uint64        `json:"trace,omitempty"`
	Name   string        `json:"name"`
	Start  time.Duration `json:"start_ns,omitempty"`
	End    time.Duration `json:"end_ns,omitempty"`
	Dur    time.Duration `json:"dur_ns,omitempty"`
	N      int           `json:"n"`
	Agg    bool          `json:"agg,omitempty"`
}

func (s *span) dur() time.Duration {
	if s.Agg {
		return s.Dur
	}
	return s.End - s.Start
}

// layerOf returns the layer part of a span name.
func layerOf(name string) string {
	for i := 0; i < len(name); i++ {
		if name[i] == '.' {
			return name[:i]
		}
	}
	return name
}

// selfTimes returns each span's self time: its duration minus the part
// its children cover. Real children cover the union of their intervals
// clipped to the parent's; aggregate children cover their summed
// duration. Self time never goes below zero. Spans whose parent is not
// in the list are roots.
func selfTimes(spans []span) []time.Duration {
	idx := make(map[uint64]int, len(spans))
	for i := range spans {
		idx[spans[i].ID] = i
	}
	children := make(map[int][]int)
	for i := range spans {
		if p, ok := idx[spans[i].Parent]; ok && spans[i].Parent != 0 {
			children[p] = append(children[p], i)
		}
	}
	out := make([]time.Duration, len(spans))
	for i := range spans {
		p := &spans[i]
		var covered time.Duration
		var ivs [][2]time.Duration
		for _, c := range children[i] {
			ch := &spans[c]
			if ch.Agg || p.Agg {
				covered += ch.dur()
				continue
			}
			lo, hi := ch.Start, ch.End
			if lo < p.Start {
				lo = p.Start
			}
			if hi > p.End {
				hi = p.End
			}
			if hi > lo {
				ivs = append(ivs, [2]time.Duration{lo, hi})
			}
		}
		covered += unionLen(ivs)
		if self := p.dur() - covered; self > 0 {
			out[i] = self
		}
	}
	return out
}

// unionLen is the total length covered by a set of intervals.
func unionLen(ivs [][2]time.Duration) time.Duration {
	sort.Slice(ivs, func(a, b int) bool { return ivs[a][0] < ivs[b][0] })
	var total time.Duration
	var curLo, curHi time.Duration
	open := false
	for _, iv := range ivs {
		if !open || iv[0] > curHi {
			if open {
				total += curHi - curLo
			}
			curLo, curHi, open = iv[0], iv[1], true
			continue
		}
		if iv[1] > curHi {
			curHi = iv[1]
		}
	}
	if open {
		total += curHi - curLo
	}
	return total
}

// layerSelf sums self time by layer.
func layerSelf(spans []span) map[string]time.Duration {
	self := selfTimes(spans)
	out := map[string]time.Duration{}
	for i := range spans {
		out[layerOf(spans[i].Name)] += self[i]
	}
	return out
}

// spanCounts sums the calls each span name stands for.
func spanCounts(spans []span) map[string]int {
	out := map[string]int{}
	for i := range spans {
		out[spans[i].Name] += spans[i].N
	}
	return out
}

// --- Theorem 4 -------------------------------------------------------------

// theorem4 fits Theorem 4's per-chunk cost model (P_d + λ(1−P_d))·C to
// measured chunk costs. A chunk that fit ran `tests` model tests at λC
// each; a refit chunk ran its tests and one EM clustering at C. λC is
// the mean fit-chunk cost per test; C is the mean refit-chunk cost minus
// its tests. P_d is refits/chunks. Ratio is the prediction over
// measured, the mean cost of a chunk including the buffering of its
// records, which the model leaves out; ok is false when either kind of
// chunk is missing.
type t4Fit struct {
	LambdaC, C, Lambda, Pd, Predicted, Measured, Ratio float64
}

func theorem4(fitCost, fitTests, refitCost, refitTests []float64, measured float64) (t4Fit, bool) {
	if len(fitCost) == 0 || len(refitCost) == 0 {
		return t4Fit{}, false
	}
	sum := func(xs []float64) float64 {
		var s float64
		for _, x := range xs {
			s += x
		}
		return s
	}
	var f t4Fit
	f.LambdaC = sum(fitCost) / sum(fitTests)
	f.C = (sum(refitCost) - f.LambdaC*sum(refitTests)) / float64(len(refitCost))
	if f.C <= 0 {
		return t4Fit{}, false
	}
	f.Lambda = f.LambdaC / f.C
	n := float64(len(fitCost) + len(refitCost))
	f.Pd = float64(len(refitCost)) / n
	f.Predicted = (f.Pd + f.Lambda*(1-f.Pd)) * f.C
	f.Measured = measured
	f.Ratio = f.Predicted / f.Measured
	return f, true
}
