package main

import (
	"errors"
	"math"
	"testing"
	"time"
)

func TestPercentileSupportRule(t *testing.T) {
	cases := []struct {
		n    int
		want int // highest supported ladder percentile, 0 = none
	}{
		{0, 0}, {19, 0}, {20, 5000}, {99, 5000}, {100, 9000}, {199, 9000},
		{200, 9500}, {999, 9500}, {1000, 9900}, {9999, 9900}, {10000, 9990}, {100000, 9999},
	}
	for _, c := range cases {
		got, ok := highestSupported(c.n)
		if c.want == 0 {
			if ok {
				t.Errorf("n=%d: got p%s, want none supported", c.n, pctName(got))
			}
			continue
		}
		if !ok || got != c.want {
			t.Errorf("n=%d: got p%s (ok=%v), want p%s", c.n, pctName(got), ok, pctName(c.want))
		}
	}
}

func TestPercentileRefusesUnsupported(t *testing.T) {
	xs := make([]float64, 150)
	for i := range xs {
		xs[len(xs)-1-i] = float64(i + 1) // descending: percentile must sort
	}
	v, err := percentile(xs, 9000)
	if err != nil || v != 135 {
		t.Fatalf("p90 of 1..150 = %v, %v; want 135", v, err)
	}
	// 150 samples leave only 7 beyond p95: refused.
	if _, err := percentile(xs, 9500); !errors.Is(err, errUnsupported) {
		t.Fatalf("p95 of 150 samples: err = %v, want errUnsupported", err)
	}
	if xs[0] != 150 {
		t.Fatal("percentile modified its input")
	}
	d := summarize(xs)
	if d.Median != 75 || d.TopP != 9000 || d.TopV != 135 || d.N != 150 {
		t.Fatalf("summarize = %+v", d)
	}
}

func ms(v float64) time.Duration { return time.Duration(v * float64(time.Millisecond)) }

func TestSelfTimeNested(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "load.chunk", Start: ms(0), End: ms(100), N: 1},
		// Two overlapping children: the union [10, 50] counts once.
		{ID: 2, Parent: 1, Name: "site.Observe", Start: ms(10), End: ms(40), N: 1},
		{ID: 3, Parent: 1, Name: "site.Observe", Start: ms(30), End: ms(50), N: 1},
		// A child running past its parent is clipped at the parent's end.
		{ID: 4, Parent: 1, Name: "netio.Send", Start: ms(90), End: ms(120), N: 1},
		// The send's receive side, timed by replay: 12 ms of aggregate
		// children inside a 30 ms send.
		{ID: 5, Parent: 4, Name: "coordinator.apply", Dur: ms(8), N: 2, Agg: true},
		{ID: 6, Parent: 4, Name: "durable.Append", Dur: ms(4), N: 2, Agg: true},
		// Grandchild of the first Observe.
		{ID: 7, Parent: 2, Name: "site.refit", Start: ms(15), End: ms(25), N: 1},
	}
	self := selfTimes(spans)
	want := []time.Duration{ms(100 - 40 - 10), ms(30 - 10), ms(20), ms(30 - 12), ms(8), ms(4), ms(10)}
	for i := range want {
		if self[i] != want[i] {
			t.Errorf("span %d (%s): self %v, want %v", spans[i].ID, spans[i].Name, self[i], want[i])
		}
	}
	layers := layerSelf(spans)
	if layers["site"] != ms(20+20+10) || layers["load"] != ms(50) || layers["netio"] != ms(18) {
		t.Errorf("layer self = %v", layers)
	}
	if c := spanCounts(spans); c["coordinator.apply"] != 2 || c["site.Observe"] != 2 {
		t.Errorf("span counts = %v", c)
	}
	// Children that cover more than the parent leave zero self time.
	over := []span{
		{ID: 1, Name: "a.x", Start: 0, End: ms(5), N: 1},
		{ID: 2, Parent: 1, Name: "b.y", Dur: ms(9), N: 1, Agg: true},
	}
	if s := selfTimes(over); s[0] != 0 {
		t.Errorf("over-covered parent self = %v, want 0", s[0])
	}
}

func TestWatermarkFreshness(t *testing.T) {
	// Two sites. Publishes carry the per-site watermark read at capture.
	pubs := []pubMark{
		{At: ms(10), WM: []uint64{0, 0}},
		{At: ms(20), WM: []uint64{2, 0}},
		{At: ms(35), WM: []uint64{2, 1}},
		{At: ms(50), WM: []uint64{5, 3}},
	}
	msgs := []msgRef{{0, 1}, {0, 2}, {1, 1}, {0, 3}, {0, 4}, {1, 2}, {1, 3}, {0, 6}}
	vis := matchWatermarks(pubs, msgs)
	wantVis := []time.Duration{ms(20), ms(20), ms(35), ms(50), ms(50), ms(50), ms(50), never}
	for i := range wantVis {
		if vis[i] != wantVis[i] {
			t.Errorf("msg %v visible at %v, want %v", msgs[i], vis[i], wantVis[i])
		}
	}
	chunks := []chunkRec{
		{Site: 0, Created: ms(1), Decided: ms(3), Msgs: []int{0, 1}}, // both at 20
		{Site: 1, Created: ms(4), Decided: ms(6), Msgs: []int{2}},    // at 35
		// Sent nothing, but site 0's earlier messages are visible: the
		// decision time bounds it.
		{Site: 0, Created: ms(40), Decided: ms(42)},
		{Site: 0, Created: ms(43), Decided: ms(44), Msgs: []int{3, 4}}, // at 50
		// Sent nothing while its site still waits on message 6 (chunk
		// above, visible at 50): it inherits that visibility.
		{Site: 1, Created: ms(30), Decided: ms(31), Msgs: []int{5}},
		{Site: 1, Created: ms(32), Decided: ms(33)},
	}
	got, err := freshness(chunks, vis)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{19, 31, 2, 7, 20, 18}
	for i := range want {
		if math.Abs(got[i]-want[i]) > 1e-9 {
			t.Errorf("chunk %d freshness %v ms, want %v", i, got[i], want[i])
		}
	}
	// A message no snapshot contained is an error, not a silent sample.
	if _, err := freshness([]chunkRec{{Site: 0, Msgs: []int{7}}}, vis); err == nil {
		t.Fatal("freshness accepted a message that never became visible")
	}
}

func TestOpenLoopLatenessFromDueTime(t *testing.T) {
	// 1000 requests/s: request i is due at i ms. The generator stalls for
	// 50 ms before request 3, then catches up one request per 0.1 ms.
	const n = 10
	due := make([]time.Duration, n)
	actual := make([]time.Duration, n)
	for i := 0; i < n; i++ {
		due[i] = dueAt(0, i, 1000)
		switch {
		case i < 3:
			actual[i] = due[i]
		default:
			actual[i] = ms(53) + time.Duration(i-3)*100*time.Microsecond
		}
	}
	if due[7] != ms(7) {
		t.Fatalf("due[7] = %v, want 7ms", due[7])
	}
	lag := lateness(due, actual)
	for i := 0; i < n; i++ {
		want := 0.0
		if i >= 3 {
			// Timed from its own due time: the stall is charged to every
			// request it delayed, not just the first.
			want = 53 + 0.1*float64(i-3) - float64(i)
		}
		if math.Abs(lag[i]-want) > 1e-9 {
			t.Errorf("request %d lateness %v ms, want %v", i, lag[i], want)
		}
	}
	// Early requests are not late.
	if l := lateness([]time.Duration{ms(5)}, []time.Duration{ms(4)}); l[0] != 0 {
		t.Errorf("early request lateness %v, want 0", l[0])
	}
}

func TestTheorem4Fit(t *testing.T) {
	// λC = 2 per test, C = 50. Fit chunks ran 1, 1 and 2 tests; the refit
	// chunk ran 4 tests before its EM.
	fit := []float64{2, 2, 4}
	fitTests := []float64{1, 1, 2}
	refit := []float64{4*2 + 50}
	refitTests := []float64{4}
	f, ok := theorem4(fit, fitTests, refit, refitTests, 20)
	if !ok {
		t.Fatal("fit refused")
	}
	if math.Abs(f.LambdaC-2) > 1e-12 || math.Abs(f.C-50) > 1e-12 || math.Abs(f.Pd-0.25) > 1e-12 {
		t.Fatalf("fit = %+v", f)
	}
	// (0.25 + 0.04·0.75)·50 = 14.
	if math.Abs(f.Predicted-14) > 1e-12 || math.Abs(f.Ratio-14.0/20) > 1e-12 {
		t.Fatalf("prediction = %+v", f)
	}
	if _, ok := theorem4(fit, fitTests, nil, nil, 20); ok {
		t.Fatal("fit without refits accepted")
	}
}
