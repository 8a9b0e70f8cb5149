package netsim

import (
	"math/rand"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/transport"
	"cludistream/internal/uplink"
)

// TestSlowLinkDoesNotStallSiblings: links are independently serialized —
// a bandwidth-starved child queues behind its own busyUntil, while a
// sibling on a fast link delivers at pure propagation latency regardless
// of how much traffic the slow link is digesting.
func TestSlowLinkDoesNotStallSiblings(t *testing.T) {
	sim := NewSimulator()
	var slowTimes, fastTimes []float64
	slow, err := sim.NewLink(0.01, 100, func([]byte) { slowTimes = append(slowTimes, sim.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	fast, err := sim.NewLink(0.01, 0, func([]byte) { fastTimes = append(fastTimes, sim.Now()) })
	if err != nil {
		t.Fatal(err)
	}
	payload := make([]byte, 100) // 1 simulated second per frame on the slow link
	for i := 0; i < 3; i++ {
		slow.Send(payload)
		fast.Send(payload)
	}
	sim.Run()
	if len(slowTimes) != 3 || len(fastTimes) != 3 {
		t.Fatalf("deliveries: slow=%d fast=%d", len(slowTimes), len(fastTimes))
	}
	// All fast deliveries land at the propagation latency: the sibling
	// never waits on the slow link's transmission queue.
	for i, at := range fastTimes {
		if at != 0.01 {
			t.Fatalf("fast delivery %d at %v, want 0.01", i, at)
		}
	}
	// The slow link serializes its own frames: 1s, 2s, 3s of transmission
	// time plus latency.
	for i, at := range slowTimes {
		want := float64(i+1) + 0.01
		if at != want {
			t.Fatalf("slow delivery %d at %v, want %v", i, at, want)
		}
	}
}

// TestPerLinkAccountingSumsToCourierTotals: across a heterogeneous set of
// lossy links, every link's wire bytes must decompose exactly into
// goodput + dropped, goodput must equal the courier's delivered payload
// bytes, and attempt counts must reconcile with courier retries.
func TestPerLinkAccountingSumsToCourierTotals(t *testing.T) {
	sim := NewSimulator()
	shapes := []struct {
		latency, bandwidth, drop float64
	}{
		{0.01, 0, 0.3},
		{0.05, 5000, 0.2},
		{0.2, 200, 0},
	}
	type edge struct {
		link *Link
		cour *Courier
		sent int // payload bytes handed to the courier (excl. retransmits)
		msgs int
	}
	var edges []*edge
	for i, sh := range shapes {
		e := &edge{}
		var plan *FaultPlan
		if sh.drop > 0 {
			plan = &FaultPlan{DropProb: sh.drop, Rand: rand.New(rand.NewSource(int64(i + 1)))}
		}
		link, err := sim.NewFaultyLink(sh.latency, sh.bandwidth, plan, func([]byte) {})
		if err != nil {
			t.Fatal(err)
		}
		cour, err := sim.NewCourier(link, &uplink.Outbox{Epoch: 1}, 0.05, 1.0, rand.New(rand.NewSource(int64(100+i))))
		if err != nil {
			t.Fatal(err)
		}
		e.link, e.cour = link, cour
		edges = append(edges, e)
	}
	rng := rand.New(rand.NewSource(9))
	for rec := 0; rec < 60; rec++ {
		e := edges[rec%len(edges)]
		// Mixtures of 1–4 components vary the frame sizes.
		k := 1 + rng.Intn(4)
		ws := make([]float64, k)
		comps := make([]*gaussian.Component, k)
		for j := range comps {
			ws[j] = 1 / float64(k)
			comps[j] = gaussian.Spherical(linalg.Vector{float64(j), 0}, 1)
		}
		msg := transport.Message{Kind: transport.MsgNewModel, SiteID: 1, ModelID: int32(rec), Count: 1, Mixture: gaussian.MustMixture(ws, comps)}
		e.msgs++
		msg.Epoch, msg.Seq = 1, uint64(e.msgs)
		e.sent += len(transport.Encode(msg))
		e.cour.Send(msg)
	}
	sim.Run()
	for i, e := range edges {
		if e.cour.Pending() != 0 {
			t.Fatalf("link %d: %d payloads still queued", i, e.cour.Pending())
		}
		_, droppedBytes := e.link.Dropped()
		if e.link.BytesSent() != e.link.GoodputBytes()+droppedBytes {
			t.Fatalf("link %d: wire %d != goodput %d + dropped %d",
				i, e.link.BytesSent(), e.link.GoodputBytes(), droppedBytes)
		}
		// Exactly-once goodput: each payload crosses successfully once, so
		// the link's goodput equals the courier's accepted payload bytes.
		if e.link.GoodputBytes() != e.sent {
			t.Fatalf("link %d: goodput %d != courier payload bytes %d",
				i, e.link.GoodputBytes(), e.sent)
		}
		if e.cour.Delivered() != e.msgs {
			t.Fatalf("link %d: courier delivered %d of %d", i, e.cour.Delivered(), e.msgs)
		}
		// Every wire message is either the first attempt or a courier
		// retry, and retransmitted bytes are exactly the re-sent copies.
		if e.link.Messages() != e.msgs+e.cour.Retries() {
			t.Fatalf("link %d: %d wire messages != %d payloads + %d retries",
				i, e.link.Messages(), e.msgs, e.cour.Retries())
		}
		if e.link.RetransmitBytes() != e.link.BytesSent()-e.sent {
			t.Fatalf("link %d: retransmit bytes %d != wire %d - first-attempt %d",
				i, e.link.RetransmitBytes(), e.link.BytesSent(), e.sent)
		}
	}
}
