package netsim

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"cludistream/internal/transport"
	"cludistream/internal/uplink"
)

// mustLink / mustFaultyLink / mustCourier unwrap the error-returning
// constructors for tests whose configurations are valid by construction.
func mustLink(t *testing.T, s *Simulator, latency, bandwidth float64, deliver func([]byte)) *Link {
	t.Helper()
	l, err := s.NewLink(latency, bandwidth, deliver)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustFaultyLink(t *testing.T, s *Simulator, latency, bandwidth float64, plan *FaultPlan, deliver func([]byte)) *Link {
	t.Helper()
	l, err := s.NewFaultyLink(latency, bandwidth, plan, deliver)
	if err != nil {
		t.Fatal(err)
	}
	return l
}

func mustCourier(t *testing.T, s *Simulator, link *Link, base, max float64, rng *rand.Rand) *Courier {
	t.Helper()
	c, err := s.NewCourier(link, &uplink.Outbox{Epoch: 1}, base, max, rng)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestEventOrdering(t *testing.T) {
	s := NewSimulator()
	var order []int
	s.Schedule(3, func() { order = append(order, 3) })
	s.Schedule(1, func() { order = append(order, 1) })
	s.Schedule(2, func() { order = append(order, 2) })
	s.Run()
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("order = %v", order)
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v", s.Now())
	}
	if s.EventsRun() != 3 {
		t.Fatalf("EventsRun = %d", s.EventsRun())
	}
}

func TestSimultaneousEventsFIFO(t *testing.T) {
	s := NewSimulator()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		s.Schedule(1, func() { order = append(order, i) })
	}
	s.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("FIFO violated: %v", order)
		}
	}
}

func TestNestedScheduling(t *testing.T) {
	s := NewSimulator()
	var times []float64
	s.Schedule(1, func() {
		times = append(times, s.Now())
		s.Schedule(1, func() { times = append(times, s.Now()) })
	})
	s.Run()
	if len(times) != 2 || times[0] != 1 || times[1] != 2 {
		t.Fatalf("times = %v", times)
	}
}

func TestRunUntil(t *testing.T) {
	s := NewSimulator()
	var fired []float64
	for _, at := range []float64{1, 2, 3, 4, 5} {
		at := at
		s.Schedule(at, func() { fired = append(fired, at) })
	}
	s.RunUntil(3)
	if len(fired) != 3 {
		t.Fatalf("fired = %v", fired)
	}
	if s.Now() != 3 {
		t.Fatalf("Now = %v", s.Now())
	}
	// Advancing past all events moves the clock anyway.
	s.RunUntil(10)
	if s.Now() != 10 || len(fired) != 5 {
		t.Fatalf("Now = %v fired = %v", s.Now(), fired)
	}
}

func TestSchedulePanics(t *testing.T) {
	s := NewSimulator()
	for _, fn := range []func(){
		func() { s.Schedule(-1, func() {}) },
		func() { s.ScheduleAt(-0.5, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}()
	}
}

func TestLinkDeliveryAndAccounting(t *testing.T) {
	s := NewSimulator()
	var got [][]byte
	var at []float64
	l := mustLink(t, s, 0.5, 0, func(p []byte) {
		got = append(got, p)
		at = append(at, s.Now())
	})
	l.Send([]byte{1, 2, 3})
	l.Send([]byte{4})
	s.Run()
	if l.BytesSent() != 4 || l.Messages() != 2 {
		t.Fatalf("bytes=%d msgs=%d", l.BytesSent(), l.Messages())
	}
	if len(got) != 2 || at[0] != 0.5 || at[1] != 0.5 {
		t.Fatalf("deliveries at %v", at)
	}
	if got[0][0] != 1 || got[1][0] != 4 {
		t.Fatal("payload corrupted")
	}
}

func TestLinkBandwidthSerialization(t *testing.T) {
	s := NewSimulator()
	var at []float64
	l := mustLink(t, s, 0, 10, func(p []byte) { at = append(at, s.Now()) }) // 10 B/s
	l.Send(make([]byte, 20))                                                // finishes at t=2
	l.Send(make([]byte, 10))                                                // queued, finishes at t=3
	s.Run()
	if len(at) != 2 || at[0] != 2 || at[1] != 3 {
		t.Fatalf("deliveries at %v, want [2 3]", at)
	}
}

func TestLinkNilDeliver(t *testing.T) {
	s := NewSimulator()
	l := mustLink(t, s, 1, 0, nil)
	l.Send(make([]byte, 100))
	s.Run()
	if l.BytesSent() != 100 {
		t.Fatalf("bytes = %d", l.BytesSent())
	}
}

func TestLinkValidation(t *testing.T) {
	s := NewSimulator()
	rng := rand.New(rand.NewSource(1))
	cases := []struct {
		name string
		err  string
		do   func() error
	}{
		{"negative latency", "latency", func() error { _, err := s.NewLink(-1, 0, nil); return err }},
		{"NaN latency", "latency", func() error { _, err := s.NewLink(math.NaN(), 0, nil); return err }},
		{"negative bandwidth", "bandwidth", func() error { _, err := s.NewLink(0, -1, nil); return err }},
		{"drop prob out of range", "DropProb", func() error {
			_, err := s.NewFaultyLink(0, 0, &FaultPlan{DropProb: 1.5, Rand: rng}, nil)
			return err
		}},
		{"dup prob negative", "DupProb", func() error {
			_, err := s.NewFaultyLink(0, 0, &FaultPlan{DupProb: -0.1, Rand: rng}, nil)
			return err
		}},
		{"drop prob without rand", "Rand", func() error {
			_, err := s.NewFaultyLink(0, 0, &FaultPlan{DropProb: 0.5}, nil)
			return err
		}},
		{"dup prob without rand", "Rand", func() error {
			_, err := s.NewFaultyLink(0, 0, &FaultPlan{DupProb: 0.5}, nil)
			return err
		}},
		{"inverted outage", "inverted", func() error {
			_, err := s.NewFaultyLink(0, 0, &FaultPlan{Outages: []Outage{{Start: 6, End: 2}}}, nil)
			return err
		}},
		{"empty outage", "inverted", func() error {
			_, err := s.NewFaultyLink(0, 0, &FaultPlan{Outages: []Outage{{Start: 2, End: 2}}}, nil)
			return err
		}},
		{"negative outage start", "negative", func() error {
			_, err := s.NewFaultyLink(0, 0, &FaultPlan{Outages: []Outage{{Start: -1, End: 2}}}, nil)
			return err
		}},
	}
	for _, tc := range cases {
		err := tc.do()
		if err == nil {
			t.Errorf("%s: accepted", tc.name)
			continue
		}
		if !strings.Contains(err.Error(), tc.err) {
			t.Errorf("%s: error %q does not mention %q", tc.name, err, tc.err)
		}
	}
	// Valid configurations still construct.
	if _, err := s.NewFaultyLink(0.1, 100, &FaultPlan{DropProb: 0.2, DupProb: 0.1, Rand: rng, Outages: []Outage{{Start: 1, End: 2}}}, nil); err != nil {
		t.Fatalf("valid plan rejected: %v", err)
	}
}

func TestCourierValidation(t *testing.T) {
	s := NewSimulator()
	rng := rand.New(rand.NewSource(1))
	l := mustLink(t, s, 0, 0, nil)
	ob := &uplink.Outbox{Epoch: 1}
	for _, tc := range []struct {
		name string
		do   func() error
	}{
		{"zero backoff", func() error { _, err := s.NewCourier(l, ob, 0, 1, rng); return err }},
		{"negative backoff", func() error { _, err := s.NewCourier(l, ob, -0.5, 1, rng); return err }},
		{"NaN backoff", func() error { _, err := s.NewCourier(l, ob, math.NaN(), 1, rng); return err }},
		{"negative max backoff", func() error { _, err := s.NewCourier(l, ob, 0.1, -1, rng); return err }},
		{"nil rng", func() error { _, err := s.NewCourier(l, ob, 0.1, 1, nil); return err }},
		{"nil link", func() error { _, err := s.NewCourier(nil, ob, 0.1, 1, rng); return err }},
		{"nil outbox", func() error { _, err := s.NewCourier(l, nil, 0.1, 1, rng); return err }},
	} {
		if err := tc.do(); err == nil {
			t.Errorf("%s: accepted", tc.name)
		}
	}
	// max < base is raised, not rejected.
	c, err := s.NewCourier(l, ob, 0.5, 0.1, rng)
	if err != nil || c == nil {
		t.Fatalf("max<base rejected: %v", err)
	}
}

func TestFaultPlanDupDelivery(t *testing.T) {
	s := NewSimulator()
	var got []float64
	plan := &FaultPlan{DupProb: 1, Rand: rand.New(rand.NewSource(5))}
	l := mustFaultyLink(t, s, 0.4, 0, plan, func(p []byte) { got = append(got, s.Now()) })
	l.Send(make([]byte, 10))
	s.Run()
	if len(got) != 2 {
		t.Fatalf("deliveries = %d, want 2 (original + duplicate)", len(got))
	}
	if got[0] != 0.4 || got[1] <= got[0] {
		t.Fatalf("delivery times %v: duplicate must trail the original", got)
	}
	// Duplicates consume no wire bytes and no goodput.
	if l.BytesSent() != 10 || l.GoodputBytes() != 10 {
		t.Fatalf("bytes=%d goodput=%d, want 10/10", l.BytesSent(), l.GoodputBytes())
	}
	if l.DupDelivered() != 1 {
		t.Fatalf("DupDelivered = %d", l.DupDelivered())
	}
}

func TestCostSeriesCumulative(t *testing.T) {
	s := NewSimulator()
	l := mustLink(t, s, 0, 0, nil)
	send := func(at float64, n int) {
		s.Schedule(at, func() { l.Send(make([]byte, n)) })
	}
	send(0.5, 10)
	send(1.5, 20)
	send(1.9, 5)
	send(3.5, 100)
	s.Run()
	got := l.CostSeries(1, 4)
	want := []int{10, 35, 35, 135}
	if len(got) != len(want) {
		t.Fatalf("series = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("series = %v, want %v", got, want)
		}
	}
}

func TestCostSeriesClampsLateSends(t *testing.T) {
	s := NewSimulator()
	l := mustLink(t, s, 0, 0, nil)
	s.Schedule(9.5, func() { l.Send(make([]byte, 7)) })
	s.Run()
	got := l.CostSeries(1, 5) // series shorter than the send time
	if got[len(got)-1] != 7 {
		t.Fatalf("late send lost: %v", got)
	}
}

func TestRunUntilEmptyHeap(t *testing.T) {
	// With nothing scheduled the clock still advances to t exactly.
	s := NewSimulator()
	s.RunUntil(5)
	if s.Now() != 5 || s.EventsRun() != 0 {
		t.Fatalf("Now = %v, ran = %d", s.Now(), s.EventsRun())
	}
	// A RunUntil into the past never rewinds the clock.
	s.RunUntil(2)
	if s.Now() != 5 {
		t.Fatalf("clock rewound to %v", s.Now())
	}
	// Draining an empty heap is a no-op.
	s.Run()
	if s.Now() != 5 || s.Step() {
		t.Fatal("empty Run/Step misbehaved")
	}
}

func TestMergeCostSeriesEdgeCases(t *testing.T) {
	if got := MergeCostSeries(nil, nil, nil); len(got) != 0 {
		t.Fatalf("all-nil merge = %v", got)
	}
	if got := MergeCostSeries([]int{}, []int{}); len(got) != 0 {
		t.Fatalf("all-empty merge = %v", got)
	}
	// Wildly unequal lengths: the short series stays flat at its last value.
	got := MergeCostSeries([]int{7}, []int{1, 2, 3, 4, 5})
	want := []int{8, 9, 10, 11, 12}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge = %v, want %v", got, want)
		}
	}
	// A single series passes through unchanged.
	got = MergeCostSeries([]int{3, 6})
	if got[0] != 3 || got[1] != 6 {
		t.Fatalf("identity merge = %v", got)
	}
}

func TestBandwidthBusyUntilOrdering(t *testing.T) {
	// Back-to-back sends serialize; after an idle gap the link restarts
	// from the current time rather than the stale busyUntil.
	s := NewSimulator()
	var at []float64
	l := mustLink(t, s, 0, 10, func(p []byte) { at = append(at, s.Now()) }) // 10 B/s
	l.Send(make([]byte, 20))                                                // busy until t=2
	s.Schedule(1, func() { l.Send(make([]byte, 10)) })                      // queued: 2..3
	s.Schedule(5, func() { l.Send(make([]byte, 10)) })                      // idle link: 5..6
	s.Run()
	want := []float64{2, 3, 6}
	if len(at) != 3 || at[0] != want[0] || at[1] != want[1] || at[2] != want[2] {
		t.Fatalf("deliveries at %v, want %v", at, want)
	}
}

func TestFaultPlanDropProb(t *testing.T) {
	s := NewSimulator()
	var delivered int
	plan := &FaultPlan{DropProb: 0.5, Rand: rand.New(rand.NewSource(11))}
	l := mustFaultyLink(t, s, 0, 0, plan, func(p []byte) { delivered++ })
	const n = 1000
	for i := 0; i < n; i++ {
		l.Send(make([]byte, 10))
	}
	s.Run()
	dropMsgs, dropBytes := l.Dropped()
	if delivered+dropMsgs != n {
		t.Fatalf("delivered %d + dropped %d != %d", delivered, dropMsgs, n)
	}
	if dropMsgs < n/3 || dropMsgs > 2*n/3 {
		t.Fatalf("p=0.5 dropped %d of %d", dropMsgs, n)
	}
	if l.BytesSent() != 10*n {
		t.Fatalf("wire bytes = %d, want %d (losses still cost wire bytes)", l.BytesSent(), 10*n)
	}
	if l.GoodputBytes() != 10*delivered || dropBytes != 10*dropMsgs {
		t.Fatalf("goodput %d / droppedBytes %d inconsistent", l.GoodputBytes(), dropBytes)
	}
}

func TestFaultPlanOutageWindow(t *testing.T) {
	s := NewSimulator()
	var at []float64
	plan := &FaultPlan{Outages: []Outage{{Start: 1, End: 3}}}
	l := mustFaultyLink(t, s, 0.5, 0, plan, func(p []byte) { at = append(at, s.Now()) })
	for _, sendAt := range []float64{0, 1, 2, 3} { // arrivals 0.5, 1.5, 2.5, 3.5
		sendAt := sendAt
		s.Schedule(sendAt, func() { l.Send([]byte{1}) })
	}
	s.Run()
	if len(at) != 2 || at[0] != 0.5 || at[1] != 3.5 {
		t.Fatalf("deliveries at %v, want [0.5 3.5]", at)
	}
	if d, _ := l.Dropped(); d != 2 {
		t.Fatalf("dropped = %d, want 2", d)
	}
}

// deletion returns a small fixed-size message identified by id.
func deletion(id int32) transport.Message {
	return transport.Message{Kind: transport.MsgDeletion, SiteID: 1, ModelID: id, Count: 1}
}

// decoded decodes a delivered frame, failing the test on garbage.
func decoded(t *testing.T, p []byte) transport.Message {
	t.Helper()
	m, err := transport.Decode(p)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

func TestCourierRetransmitsInOrder(t *testing.T) {
	s := NewSimulator()
	var got []transport.Message
	// Outage by arrival time: everything arriving before t=2 is lost.
	plan := &FaultPlan{Outages: []Outage{{Start: 0, End: 2}}}
	l := mustFaultyLink(t, s, 0.1, 0, plan, func(p []byte) { got = append(got, decoded(t, p)) })
	c := mustCourier(t, s, l, 0.05, 0.4, rand.New(rand.NewSource(3)))
	for i := int32(0); i < 5; i++ {
		c.Send(deletion(i))
	}
	s.Run()
	if len(got) != 5 {
		t.Fatalf("delivered %d of 5 (pending %d)", len(got), c.Pending())
	}
	for i, m := range got {
		if m.ModelID != int32(i) || m.Epoch != 1 || m.Seq != uint64(i+1) {
			t.Fatalf("order or stamping violated at %d: %+v", i, m)
		}
	}
	if c.Retries() == 0 || l.RetransmitBytes() == 0 {
		t.Fatalf("outage survived without retries (retries=%d, retransmit=%d)", c.Retries(), l.RetransmitBytes())
	}
	// Goodput counts each payload once; the rest of the wire bytes are
	// losses.
	size := len(transport.Encode(transport.Message{Kind: transport.MsgDeletion, Epoch: 1, Seq: 1}))
	if l.GoodputBytes() != 5*size {
		t.Fatalf("goodput = %d, want %d", l.GoodputBytes(), 5*size)
	}
	if _, dropBytes := l.Dropped(); l.BytesSent() != l.GoodputBytes()+dropBytes {
		t.Fatalf("bytes %d != goodput %d + dropped %d", l.BytesSent(), l.GoodputBytes(), dropBytes)
	}
	if c.Delivered() != 5 {
		t.Fatalf("courier delivered = %d", c.Delivered())
	}
}

func TestCourierCrashDropsQueue(t *testing.T) {
	s := NewSimulator()
	var got []transport.Message
	plan := &FaultPlan{Outages: []Outage{{Start: 0, End: 10}}}
	l := mustFaultyLink(t, s, 0, 0, plan, func(p []byte) { got = append(got, decoded(t, p)) })
	c := mustCourier(t, s, l, 0.1, 0.1, rand.New(rand.NewSource(4)))
	c.Send(deletion(1))
	c.Send(deletion(2))
	if c.Pending() != 2 {
		t.Fatalf("pending = %d", c.Pending())
	}
	c.Crash()
	if c.Pending() != 0 {
		t.Fatal("crash kept the queue")
	}
	// The orphaned retry timer fires harmlessly; nothing is delivered.
	s.Run()
	if len(got) != 0 {
		t.Fatalf("delivered %d after crash", len(got))
	}
	// The restarted incarnation can send again, under the next epoch with
	// a fresh sequence space.
	c.Send(deletion(3))
	s.Run()
	if len(got) != 1 || got[0].ModelID != 3 || got[0].Epoch != 2 || got[0].Seq != 1 {
		t.Fatalf("restart delivery = %+v, want model 3 at epoch 2 seq 1", got)
	}
}

func TestMergeCostSeries(t *testing.T) {
	a := []int{1, 2, 3}
	b := []int{10, 20, 30, 40}
	got := MergeCostSeries(a, b)
	want := []int{11, 22, 33, 43} // a is flat at 3 after its end
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("merge = %v, want %v", got, want)
		}
	}
	if got := MergeCostSeries(); len(got) != 0 {
		t.Fatal("empty merge not empty")
	}
	if got := MergeCostSeries(nil, []int{5}); got[0] != 5 {
		t.Fatalf("nil series handling: %v", got)
	}
}
