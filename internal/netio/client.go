package netio

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
	"cludistream/internal/uplink"
)

// RetryPolicy tunes fault-tolerant delivery on a Conn. The zero value
// selects the defaults noted on each field.
type RetryPolicy struct {
	// DialTimeout bounds each TCP connect (default 10s).
	DialTimeout time.Duration
	// AttemptTimeout bounds one frame+ack round trip (default 5s); a
	// round trip that exceeds it counts as a connection failure.
	AttemptTimeout time.Duration
	// BaseBackoff is the first reconnect delay (default 50ms); it doubles
	// per consecutive failure up to MaxBackoff (default 2s), with
	// deterministic jitter drawn from Rand in [d/2, d).
	BaseBackoff time.Duration
	MaxBackoff  time.Duration
	// MaxAttempts caps transmission attempts per message; a message that
	// fails that many round trips is dropped (counted in
	// DeliveryStats.Dropped). Zero retries forever — the default, since
	// dropping updates silently skews the global model.
	MaxAttempts int
	// OutboxLimit bounds the number of queued messages (default 4096).
	// Overflow drops the oldest queued message.
	OutboxLimit int
	// Epoch is the sender's incarnation number (default 1). A process
	// that restarts after a crash must use a strictly higher epoch so the
	// coordinator discards the dead incarnation's state;
	// uplink.Incarnation derives one from the wall clock.
	Epoch uint32
	// SiteID, when non-zero, enables the restart handshake: each new
	// connection opens with a hello frame, and the coordinator's watermark
	// reply prunes every outbox entry it has already durably applied, so a
	// reconnect after a coordinator restart retransmits only the suffix.
	// Dial sets this automatically from the client's site id.
	SiteID int32
	// Rand supplies backoff jitter; nil uses a fixed-seed source (still
	// deterministic, just shared shape across conns).
	Rand *rand.Rand
	// Sleep replaces time.Sleep in blocking flushes (test hook).
	Sleep func(time.Duration)
	// Telemetry, when non-nil, mirrors DeliveryStats into net.* counters
	// and journals reconnects, backoff waits and drops.
	Telemetry *telemetry.Registry
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.DialTimeout <= 0 {
		p.DialTimeout = 10 * time.Second
	}
	if p.AttemptTimeout <= 0 {
		p.AttemptTimeout = 5 * time.Second
	}
	if p.BaseBackoff <= 0 {
		p.BaseBackoff = 50 * time.Millisecond
	}
	if p.MaxBackoff < p.BaseBackoff {
		p.MaxBackoff = 2 * time.Second
		if p.MaxBackoff < p.BaseBackoff {
			p.MaxBackoff = p.BaseBackoff
		}
	}
	if p.OutboxLimit <= 0 {
		p.OutboxLimit = 4096
	}
	if p.Epoch == 0 {
		p.Epoch = 1
	}
	if p.Rand == nil {
		p.Rand = rand.New(rand.NewSource(1))
	}
	if p.Sleep == nil {
		p.Sleep = time.Sleep
	}
	return p
}

// DeliveryStats counts the work of fault-tolerant delivery: the outbox's
// counters plus the connection's own reconnects.
type DeliveryStats struct {
	uplink.Stats
	// Reconnects is the number of successful re-dials after a broken
	// connection.
	Reconnects int
}

// connTele holds a Conn's connection-level instruments (all nil ⇒ no-op);
// the outbox mirrors its own counters into the same registry. The
// counters aggregate across every Conn sharing a registry, so a daemon's
// snapshot shows deployment-wide delivery behaviour.
type connTele struct {
	reg         *telemetry.Registry
	reconnects  *telemetry.Counter
	backoffs    *telemetry.Counter
	backoffSecs *telemetry.Histogram
	storms      *telemetry.Counter
}

func newConnTele(reg *telemetry.Registry) (connTele, uplink.Tele) {
	return connTele{
			reg:        reg,
			reconnects: reg.Counter("net.reconnects"),
			backoffs:   reg.Counter("net.backoff_waits"),
			backoffSecs: reg.Histogram("net.backoff_seconds",
				0.01, 0.05, 0.1, 0.5, 1, 2, 5, 10),
			storms: reg.Counter("net.reconnect_storms"),
		}, uplink.Tele{
			Sends:      reg.Counter("net.sends"),
			Acked:      reg.Counter("net.acked"),
			Goodput:    reg.Counter("net.goodput_bytes"),
			Retransmit: reg.Counter("net.retransmit_bytes"),
			Retries:    reg.Counter("net.retries"),
			Dropped:    reg.Counter("net.dropped"),
			Rejected:   reg.Counter("net.rejected"),
			Pruned:     reg.Counter("net.handshake_pruned"),
			Depth:      reg.Gauge("net.outbox_depth"),
			HighWater:  reg.Gauge("net.outbox_high_water"),
		}
}

// Conn is a fault-tolerant protocol connection: it drives an
// uplink.Outbox over TCP. The outbox stamps per-connection monotone
// sequence numbers, queues messages and decides what each round trip's
// outcome does to the queue; Conn delivers the head with frame+ack round
// trips. A broken connection is re-dialed with capped exponential
// backoff; queued messages survive the outage and drain in order on
// reconnect, and the receiver dedupes by (site, epoch, seq), so
// retransmitted frames are exactly-once in effect.
//
// Send never blocks on an unreachable coordinator — it queues and returns
// — so a site degrades gracefully to local-only clustering while
// disconnected. Call Flush to block until the outbox drains. Safe for
// concurrent senders.
type Conn struct {
	mu   sync.Mutex
	addr string
	pol  RetryPolicy
	ob   uplink.Outbox

	nc         net.Conn  // nil while disconnected
	fails      int       // consecutive connection failures (backoff exponent)
	notBefore  time.Time // earliest next reconnect attempt
	reconnects int

	// helloDone records that the restart handshake ran on the current
	// connection (only meaningful when pol.SiteID != 0).
	helloDone bool
	// progressed / noProgress detect reconnect storms: a reconnect with no
	// ack since the previous one extends a no-progress streak, and a
	// streak of stormStreak reconnects counts one storm.
	progressed bool
	noProgress int

	tele connTele

	// tracer is the registry's tracer (nil when tracing is off). traceOK
	// records that the current connection's handshake granted the
	// trace-suffix capability; it resets with every reconnect, so a
	// coordinator downgrade simply stops the suffixes.
	tracer  *telemetry.Tracer
	traceOK bool
}

// stormStreak is how many consecutive no-progress reconnects count as a
// reconnect storm (a flapping link or a coordinator that accepts and
// immediately drops connections).
const stormStreak = 3

// DialConn opens a protocol connection to a Server with the default
// retry policy.
func DialConn(addr string, timeout time.Duration) (*Conn, error) {
	return DialConnRetry(addr, RetryPolicy{DialTimeout: timeout})
}

// DialConnRetry opens a protocol connection with an explicit retry
// policy. The initial dial is eager: an unreachable coordinator is
// reported immediately so callers can apply their own startup policy.
func DialConnRetry(addr string, pol RetryPolicy) (*Conn, error) {
	pol = pol.withDefaults()
	nc, err := net.DialTimeout("tcp", addr, pol.DialTimeout)
	if err != nil {
		return nil, err
	}
	tele, obTele := newConnTele(pol.Telemetry)
	tracer := pol.Telemetry.Tracer()
	return &Conn{addr: addr, pol: pol, nc: nc, tele: tele, tracer: tracer, ob: uplink.Outbox{
		Epoch: pol.Epoch, Limit: pol.OutboxLimit, MaxAttempts: pol.MaxAttempts,
		Tracer: tracer, Tele: obTele,
	}}, nil
}

// DialWithRetry calls dial until it succeeds, waiting between attempts
// with doubling backoff (500ms, capped at 10s) so a process can start
// before — or ride out a restart of — the coordinator at addr. maxRetry
// bounds the attempts (negative retries forever); logf reports each wait.
func DialWithRetry[T any](addr string, maxRetry int, logf func(format string, args ...any), dial func() (T, error)) (T, error) {
	backoff := 500 * time.Millisecond
	for attempt := 1; ; attempt++ {
		c, err := dial()
		if err == nil {
			return c, nil
		}
		if maxRetry >= 0 && attempt >= maxRetry {
			return c, fmt.Errorf("dial %s: %w (after %d attempts)", addr, err, attempt)
		}
		logf("dial %s: %v — retrying in %v", addr, err, backoff)
		time.Sleep(backoff)
		backoff = min(2*backoff, 10*time.Second)
	}
}

// Send queues one message for delivery and opportunistically drains the
// outbox. It returns nil when the message was delivered or remains
// queued for a later retry, and ErrRemote when the coordinator rejected
// a message during this drain.
func (c *Conn) Send(msg transport.Message) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.ob.Push(msg)
	return c.flushLocked(false, time.Time{})
}

// Flush blocks until the outbox is empty, retrying with backoff. A
// non-positive timeout waits forever. It returns ErrRemote if the
// coordinator rejected a message, or a timeout error when messages
// remain queued at the deadline.
func (c *Conn) Flush(timeout time.Duration) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var deadline time.Time
	if timeout > 0 {
		deadline = time.Now().Add(timeout)
	}
	if err := c.flushLocked(true, deadline); err != nil {
		return err
	}
	if n := c.ob.Len(); n > 0 {
		return fmt.Errorf("netio: flush timed out with %d messages queued", n)
	}
	return nil
}

// flushLocked drains the outbox head-first. In non-blocking mode it
// stops at the first connection failure or unexpired backoff window; in
// blocking mode it sleeps through backoff until the outbox empties or
// the deadline passes. Callers hold c.mu.
func (c *Conn) flushLocked(block bool, deadline time.Time) error {
	var rejected bool
	for c.ob.Len() > 0 {
		now := time.Now()
		if !deadline.IsZero() && now.After(deadline) {
			break
		}
		if c.nc == nil {
			if wait := c.notBefore.Sub(now); wait > 0 {
				if !block {
					break
				}
				if rem := deadline.Sub(now); !deadline.IsZero() && rem < wait {
					wait = rem
				}
				c.pol.Sleep(wait)
				continue
			}
			nc, err := net.DialTimeout("tcp", c.addr, c.pol.DialTimeout)
			if err != nil {
				c.fails++
				c.armBackoff()
				if !block {
					break
				}
				continue
			}
			c.nc = nc
			c.helloDone = false
			c.reconnects++
			c.tele.reconnects.Inc()
			if c.tele.reg != nil {
				c.tele.reg.Record(telemetry.Event{
					Kind: "net-reconnect", N: c.fails, Note: c.addr,
				})
			}
			// Storm detection: reconnecting without a single ack since the
			// previous reconnect means the link is churning, not working.
			if c.progressed {
				c.noProgress = 0
			} else {
				c.noProgress++
				if c.noProgress == stormStreak {
					c.tele.storms.Inc()
					if c.tele.reg != nil {
						c.tele.reg.Record(telemetry.Event{
							Kind: "net-reconnect-storm", N: c.noProgress, Note: c.addr,
						})
					}
				}
			}
			c.progressed = false
		}
		if c.pol.SiteID != 0 && !c.helloDone {
			if err := c.handshake(); err != nil {
				c.broken()
				if !block {
					break
				}
				continue
			}
			continue // the prune may have emptied the outbox
		}
		head := c.ob.Attempt()
		err := c.transmit(head)
		switch {
		case err == nil:
			c.ob.Ack()
			c.fails = 0
			c.progressed = true
		case errors.Is(err, ErrRemote):
			// The coordinator decoded the frame and refused it; the
			// connection is healthy and retrying cannot help.
			c.ob.Reject()
			rejected = true
			c.fails = 0
		default:
			c.broken()
			if !block {
				goto out
			}
		}
	}
out:
	if rejected {
		return ErrRemote
	}
	return nil
}

// broken records a failed round trip: the outbox counts the failure (and
// may give up on the head), and the connection is dropped and re-dialed
// after backoff. Callers hold c.mu.
func (c *Conn) broken() {
	c.ob.Fail()
	c.nc.Close()
	c.nc = nil
	c.helloDone = false
	c.fails++
	c.armBackoff()
}

// handshake runs the restart handshake on a fresh connection: send a
// hello, read the coordinator's durable (epoch, maxSeq) watermark for
// this site, and prune every outbox entry the watermark already covers —
// after a coordinator restart, only the unapplied suffix is retransmitted.
// Callers hold c.mu.
func (c *Conn) handshake() error {
	hello := transport.Message{Kind: transport.MsgHello, SiteID: c.pol.SiteID}
	if c.tracer != nil {
		// Request the trace-suffix capability. Legacy servers ignore a
		// hello's Count, so the bit is invisible to them.
		hello.Count = helloTraceBit
	}
	payload := transport.Encode(hello)
	c.nc.SetDeadline(time.Now().Add(c.pol.AttemptTimeout))
	if err := writeFrame(c.nc, payload); err != nil {
		return err
	}
	epoch, maxSeq, traced, err := readWatermarkAck(c.nc)
	if err != nil {
		return err
	}
	c.traceOK = traced && c.tracer != nil
	c.ob.Prune(epoch, maxSeq)
	c.helloDone = true
	return nil
}

// transmit performs one frame+ack round trip for the outbox head,
// attaching the 16-byte trace suffix when the connection negotiated the
// capability and recording a wire-send span per attempt (retransmits
// included) under the producing chunk's trace.
func (c *Conn) transmit(head *uplink.Entry) error {
	payload := head.Frame(c.traceOK)
	ref := c.tracer.Begin(head.Trace, head.Span, "wire-send", 0, 0)
	err := c.roundTrip(payload)
	note := ""
	if head.Attempts > 1 {
		note = "retransmit"
	}
	if err != nil {
		if note == "" {
			note = "dropped"
		} else {
			note = "retransmit-dropped"
		}
	}
	ref.End(len(payload), note)
	return err
}

// roundTrip performs one frame+ack exchange under the attempt deadline.
func (c *Conn) roundTrip(payload []byte) error {
	c.nc.SetDeadline(time.Now().Add(c.pol.AttemptTimeout))
	if err := writeFrame(c.nc, payload); err != nil {
		return err
	}
	return readAck(c.nc)
}

// armBackoff schedules the earliest next reconnect attempt: capped
// exponential in the consecutive-failure count with jitter in [d/2, d).
func (c *Conn) armBackoff() {
	d := c.pol.BaseBackoff << uint(c.fails-1)
	if d <= 0 || d > c.pol.MaxBackoff {
		d = c.pol.MaxBackoff
	}
	d = d/2 + time.Duration(c.pol.Rand.Int63n(int64(d/2)+1))
	c.notBefore = time.Now().Add(d)
	c.tele.backoffs.Inc()
	c.tele.backoffSecs.Observe(d.Seconds())
}

// Stats returns (goodput bytes, messages acknowledged) — the pre-retry
// accounting surface, preserved for the cost experiments.
func (c *Conn) Stats() (bytesOut, messages int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	s := c.ob.Stats()
	return s.GoodputBytes, s.Acked
}

// Delivery returns the full fault-tolerance counters.
func (c *Conn) Delivery() DeliveryStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return DeliveryStats{Stats: c.ob.Stats(), Reconnects: c.reconnects}
}

// Close closes the underlying connection. Queued messages are not
// flushed — call Flush first if delivery matters.
func (c *Conn) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.nc == nil {
		return nil
	}
	err := c.nc.Close()
	c.nc = nil
	c.helloDone = false
	return err
}

// Client is the remote-site endpoint: it owns a site.Site, feeds records to
// it, and ships every resulting update to the coordinator over TCP. It is
// safe for use from one goroutine (a site observes one stream; run one
// Client per stream).
//
// The embedded Conn's Flush, Stats, Delivery and Close act on the site's
// outbox; Close leaves the wrapped site usable locally.
type Client struct {
	*Conn
	em *uplink.Emitter
}

// DialOptions tunes Dial.
type DialOptions struct {
	// Timeout bounds the TCP connect (default 10s); shorthand for
	// Retry.DialTimeout.
	Timeout time.Duration
	// Retry tunes fault-tolerant delivery (zero value: defaults).
	Retry RetryPolicy
	// SlidingHorizonChunks enables sliding-window deletions (Section 7)
	// with the given horizon; zero keeps landmark behaviour.
	SlidingHorizonChunks int
}

// Dial connects to the coordinator at addr and wraps st. The site's
// SiteID identifies this client in every message.
func Dial(addr string, st *site.Site, siteID int, opts DialOptions) (*Client, error) {
	em, err := uplink.NewEmitter(st, opts.SlidingHorizonChunks)
	if err != nil {
		return nil, err
	}
	pol := opts.Retry
	if pol.DialTimeout == 0 {
		pol.DialTimeout = opts.Timeout
	}
	if pol.SiteID == 0 {
		pol.SiteID = int32(siteID) // enable the restart handshake
	}
	conn, err := DialConnRetry(addr, pol)
	if err != nil {
		return nil, err
	}
	return &Client{Conn: conn, em: em}, nil
}

// Site returns the wrapped site processor.
func (c *Client) Site() *site.Site { return c.em.Site() }

// Observe feeds one record to the site and queues the messages it
// produced (see uplink.Emitter.Observe) for delivery. Every message is
// queued even when an earlier one errors — the outbox, not the caller,
// owns retransmission — so a delivery failure can never lose the rest of
// a chunk's updates. The returned error is the site's own error, or the
// first delivery rejection.
func (c *Client) Observe(x linalg.Vector) error {
	msgs, err := c.em.Observe(x)
	if err != nil {
		return err
	}
	var firstErr error
	for _, msg := range msgs {
		if err := c.Send(msg); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// ObserveAll feeds a batch.
func (c *Client) ObserveAll(xs []linalg.Vector) error {
	for _, x := range xs {
		if err := c.Observe(x); err != nil {
			return err
		}
	}
	return nil
}
