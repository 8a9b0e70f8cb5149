// Package uplink is the sender half of exactly-once delivery, the
// counterpart of durable.Receiver. Outbox owns every per-message decision
// a sender makes — (epoch, seq) stamping, encoding, FIFO queueing, and
// what an ack, a refusal or a failed attempt does to the queue — and
// Emitter turns a site's records into the messages that feed it. Neither
// does I/O or keeps a clock: netsim.Courier drives an Outbox on the
// simulator's virtual clock and netio.Conn drives one over TCP, so the
// deterministic simulation runs the sender code the daemons run.
package uplink

import (
	"time"

	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// Outbox is one sender's delivery state machine. Push stamps, encodes and
// queues a message; a driver transmits only the head (so retransmission
// never reorders) and reports each attempt's outcome with Ack, Reject or
// Fail. Not safe for concurrent use.
type Outbox struct {
	// Epoch is the sender's incarnation, stamped on every message with a
	// per-epoch sequence number starting at 1. Zero stamps nothing, which
	// keeps the legacy v1 encoding (the paper's fault-free cost model).
	// Restart increments it.
	Epoch uint32
	// SenderID, when non-zero, overwrites every message's SiteID: the wire
	// identity a receiver dedupes by.
	SenderID int32
	// Limit bounds the queue: a push onto a full queue first drops the
	// oldest entry. Zero leaves the queue unbounded.
	Limit int
	// MaxAttempts drops the head after that many failed attempts. Zero
	// retries forever.
	MaxAttempts int
	// Tracer, when non-nil, records an "enqueue" point span for every
	// traced message.
	Tracer *telemetry.Tracer
	// Tele mirrors the counters into telemetry (nil fields are no-ops).
	Tele Tele

	seq       uint64
	queue     []Entry
	highWater int
	stats     Stats
	sent      map[uint32]Tally
}

// Entry is one queued message. The encoding is built once at Push; a
// traced message's trace context rides beside the payload, and the
// 16-byte wire suffix is attached only where a driver's link carries it.
type Entry struct {
	Epoch uint32
	Seq   uint64
	// Attempts counts transmissions of this entry so far.
	Attempts    int
	Trace, Span uint64

	frame []byte // full encoding; ends in the trace suffix when traced
	size  int    // suffix-free length
}

// Payload returns the suffix-free encoding: the bytes every receiver
// understands.
func (e *Entry) Payload() []byte { return e.frame[:e.size] }

// Frame returns the bytes of one transmission: the payload, followed by
// the trace suffix when withTrace is set and the message is traced.
func (e *Entry) Frame(withTrace bool) []byte {
	if withTrace {
		return e.frame
	}
	return e.Payload()
}

// Stats is the sender-side delivery accounting. Every pushed message ends
// in exactly one of Acked, Rejected, Dropped, HandshakePruned or Queued.
type Stats struct {
	// Acked is the number of messages the receiver took.
	Acked int
	// GoodputBytes is the payload bytes of acked messages, counted once
	// per message regardless of how many attempts it took.
	GoodputBytes int
	// RetransmitBytes is the payload bytes of second and later attempts —
	// the wire overhead of fault tolerance.
	RetransmitBytes int
	// Retries is the number of failed attempts.
	Retries int
	// Dropped counts messages abandoned: queue overflow, MaxAttempts, or
	// lost with the queue in a Restart.
	Dropped int
	// Rejected counts messages the receiver refused.
	Rejected int
	// HandshakePruned counts queued messages a Prune removed because the
	// receiver's durable watermark already covered them — retransmissions
	// the restart handshake saved.
	HandshakePruned int
	// Queued is the current queue depth.
	Queued int
}

// Tally is one epoch's sender-side entitlement: the messages pushed and
// their full encoded bytes, trace suffix included. What a receiver applies
// from that epoch can never exceed it.
type Tally struct {
	Msgs  int
	Bytes int
}

// Tele holds the telemetry instruments that mirror Stats.
type Tele struct {
	Sends, Acked, Goodput, Retransmit, Retries *telemetry.Counter
	Dropped, Rejected, Pruned                  *telemetry.Counter
	Depth, HighWater                           *telemetry.Gauge
}

// Push stamps msg with the sender id and the next (epoch, seq), encodes
// it, records its enqueue span and queues it behind every earlier message.
func (o *Outbox) Push(msg transport.Message) {
	if o.SenderID != 0 {
		msg.SiteID = o.SenderID
	}
	if o.Epoch != 0 {
		o.seq++
		msg.Epoch, msg.Seq = o.Epoch, o.seq
	}
	e := Entry{Epoch: msg.Epoch, Seq: msg.Seq, Trace: msg.TraceID, Span: msg.SpanID, frame: transport.Encode(msg)}
	e.size = len(e.frame)
	if msg.TraceID != 0 || msg.SpanID != 0 {
		e.size -= transport.TraceSuffixSize
	}
	if o.Tracer != nil && msg.TraceID != 0 {
		now := o.Tracer.Now()
		o.Tracer.Record(msg.TraceID, msg.SpanID, "enqueue",
			int(msg.SiteID), int(msg.ModelID), now, now, e.size, "")
	}
	if o.Limit > 0 && len(o.queue) >= o.Limit {
		// The oldest entry is the most stale; the site's model list
		// re-derives the receiver's view anyway.
		o.pop()
		o.stats.Dropped++
		o.Tele.Dropped.Inc()
	}
	o.queue = append(o.queue, e)
	if o.sent == nil {
		o.sent = map[uint32]Tally{}
	}
	t := o.sent[o.Epoch]
	o.sent[o.Epoch] = Tally{Msgs: t.Msgs + 1, Bytes: t.Bytes + len(e.frame)}
	o.Tele.Sends.Inc()
	if n := len(o.queue); n > o.highWater {
		o.highWater = n
		o.Tele.HighWater.Set(float64(n))
	}
	o.Tele.Depth.Set(float64(len(o.queue)))
}

// Len returns the queue depth.
func (o *Outbox) Len() int { return len(o.queue) }

// Attempt marks one more transmission of the head and returns it (nil on
// an empty queue). Second and later attempts count as retransmitted bytes.
func (o *Outbox) Attempt() *Entry {
	if len(o.queue) == 0 {
		return nil
	}
	head := &o.queue[0]
	head.Attempts++
	if head.Attempts > 1 {
		o.stats.RetransmitBytes += head.size
		o.Tele.Retransmit.Add(int64(head.size))
	}
	return head
}

// Ack records that the receiver took the head and dequeues it.
func (o *Outbox) Ack() {
	size := o.pop()
	o.stats.Acked++
	o.stats.GoodputBytes += size
	o.Tele.Acked.Inc()
	o.Tele.Goodput.Add(int64(size))
}

// Reject records that the receiver decoded the head and refused it;
// retrying cannot help, so it is dequeued.
func (o *Outbox) Reject() {
	o.pop()
	o.stats.Rejected++
	o.Tele.Rejected.Inc()
}

// Fail records a failed attempt — no ack, or the connection under it
// broke. The head stays queued for another attempt unless it has used
// MaxAttempts; Fail reports whether it was dropped.
func (o *Outbox) Fail() bool {
	o.stats.Retries++
	o.Tele.Retries.Inc()
	if o.MaxAttempts > 0 && len(o.queue) > 0 && o.queue[0].Attempts >= o.MaxAttempts {
		o.pop()
		o.stats.Dropped++
		o.Tele.Dropped.Inc()
		return true
	}
	return false
}

// Prune drops every queued entry the receiver's durable watermark
// (epoch, maxSeq) already covers: lower epochs belong to incarnations the
// receiver has superseded, and (epoch, seq <= maxSeq) entries were applied
// before it restarted.
func (o *Outbox) Prune(epoch uint32, maxSeq uint64) {
	kept := o.queue[:0]
	for _, e := range o.queue {
		if e.Epoch < epoch || (e.Epoch == epoch && e.Seq <= maxSeq) {
			o.stats.HandshakePruned++
			o.Tele.Pruned.Inc()
			continue
		}
		kept = append(kept, e)
	}
	clear(o.queue[len(kept):]) // release pruned payloads
	o.queue = kept
	o.Tele.Depth.Set(float64(len(o.queue)))
}

// Restart models the sending process dying and coming back: the queue is
// lost (counted as Dropped), and the new incarnation stamps a higher epoch
// with a fresh sequence space, so the receiver discards the dead
// incarnation's state on its first message. Counters carry on.
func (o *Outbox) Restart() {
	o.stats.Dropped += len(o.queue)
	o.Tele.Dropped.Add(int64(len(o.queue)))
	o.queue = nil
	o.Epoch++
	o.seq = 0
	o.Tele.Depth.Set(0)
}

// Stats returns the delivery counters.
func (o *Outbox) Stats() Stats {
	s := o.stats
	s.Queued = len(o.queue)
	return s
}

// Sent returns the entitlement pushed under epoch.
func (o *Outbox) Sent(epoch uint32) Tally { return o.sent[epoch] }

// pop dequeues the head and returns its payload size.
func (o *Outbox) pop() int {
	size := o.queue[0].size
	o.queue[0] = Entry{}
	o.queue = o.queue[1:]
	o.Tele.Depth.Set(float64(len(o.queue)))
	return size
}

// Incarnation returns the epoch a sender process announces: epoch when
// non-zero, else now in Unix seconds. A process restarted at least a
// second later thus outranks its dead incarnation with no state on disk.
func Incarnation(epoch uint32, now time.Time) uint32 {
	if epoch != 0 {
		return epoch
	}
	return uint32(now.Unix())
}
