package netsim

import (
	"fmt"
	"math"
	"math/rand"

	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
	"cludistream/internal/uplink"
)

// Courier drives an uplink.Outbox over a faulty Link on the virtual clock:
// the outbox stamps, queues and decides, and the courier transmits its
// head. A send the link refuses (TrySend returning false — the
// simulation's stand-in for a missing ack) is retried with capped
// exponential backoff and deterministic jitter from the injected rand.
// Pair it with a deduping receiver for exactly-once effect; the Courier
// itself only guarantees at-least-once, in order.
type Courier struct {
	sim  *Simulator
	link *Link
	ob   *uplink.Outbox
	base float64 // first retry delay, seconds
	max  float64 // backoff cap, seconds
	rng  *rand.Rand

	waiting bool // a retry timer is pending

	teleBackoff *telemetry.Histogram
}

// SetTelemetry registers sim.courier_* instruments in reg (nil detaches).
func (c *Courier) SetTelemetry(reg *telemetry.Registry) {
	c.ob.Tele.Retries = reg.Counter("sim.courier_retries")
	c.ob.Tele.Acked = reg.Counter("sim.courier_delivered")
	c.teleBackoff = reg.Histogram("sim.courier_backoff_seconds",
		0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10)
}

// NewCourier drives ob over link. baseBackoff must be positive — a zero
// or negative backoff would retry in a zero-delay loop, spinning the
// simulator without advancing virtual time. maxBackoff is raised to
// baseBackoff if smaller. rng drives the jitter and must not be nil.
func (s *Simulator) NewCourier(link *Link, ob *uplink.Outbox, baseBackoff, maxBackoff float64, rng *rand.Rand) (*Courier, error) {
	if math.IsNaN(baseBackoff) || baseBackoff <= 0 {
		return nil, fmt.Errorf("netsim: courier backoff %v, want > 0 (zero would spin retries at the same instant)", baseBackoff)
	}
	if math.IsNaN(maxBackoff) || maxBackoff < 0 {
		return nil, fmt.Errorf("netsim: courier max backoff %v, want >= 0", maxBackoff)
	}
	if maxBackoff < baseBackoff {
		maxBackoff = baseBackoff
	}
	if link == nil {
		return nil, fmt.Errorf("netsim: courier needs a link")
	}
	if ob == nil {
		return nil, fmt.Errorf("netsim: courier needs an outbox")
	}
	if rng == nil {
		return nil, fmt.Errorf("netsim: courier needs a rand source for jitter")
	}
	return &Courier{sim: s, link: link, ob: ob, base: baseBackoff, max: maxBackoff, rng: rng}, nil
}

// Send pushes msg onto the outbox and pumps the queue unless a retry
// timer is already pending.
func (c *Courier) Send(msg transport.Message) {
	c.ob.Push(msg)
	if !c.waiting {
		c.pump()
	}
}

// pump transmits from the head until the queue drains or a send fails,
// in which case a retry is scheduled. Every transmission carries the
// trace suffix of a traced message and records its wire-send span.
func (c *Courier) pump() {
	for c.ob.Len() > 0 {
		head := c.ob.Attempt()
		if c.link.TrySendTraced(head.Frame(true), head.Attempts > 1, head.Trace, head.Span) {
			c.ob.Ack()
			continue
		}
		failures := head.Attempts
		c.ob.Fail()
		d := c.base * math.Pow(2, float64(failures-1))
		if d > c.max {
			d = c.max
		}
		d *= 0.5 + 0.5*c.rng.Float64()
		c.teleBackoff.Observe(d)
		c.waiting = true
		c.sim.Schedule(d, func() {
			c.waiting = false
			c.pump()
		})
		return
	}
}

// Crash models the sending process dying and restarting (see
// uplink.Outbox.Restart): the queue — and any message it would still have
// retried — is lost, and later sends carry the next epoch. Counters
// survive; a pending retry timer fires harmlessly on the empty queue.
func (c *Courier) Crash() { c.ob.Restart() }

// Pending returns the queue depth.
func (c *Courier) Pending() int { return c.ob.Len() }

// Retries returns the number of failed transmissions.
func (c *Courier) Retries() int { return c.ob.Stats().Retries }

// Delivered returns the number of payloads the link accepted.
func (c *Courier) Delivered() int { return c.ob.Stats().Acked }
