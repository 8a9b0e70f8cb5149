package uplink

import (
	"fmt"
	"testing"

	"cludistream/internal/transport"
)

// refEntry / refOutbox are the fuzz target's reference model: a plain
// FIFO of (epoch, seq, size, attempts) with the counters kept by hand.
type refEntry struct {
	epoch    uint32
	seq      uint64
	size     int
	attempts int
}

type refOutbox struct {
	limit, maxAttempts int
	epoch              uint32
	seq                uint64
	queue              []refEntry
	pushed             int
	want               Stats
	ackedBytes         int
}

func (r *refOutbox) push(size int) {
	r.seq++
	if r.limit > 0 && len(r.queue) >= r.limit {
		r.queue = r.queue[1:]
		r.want.Dropped++
	}
	r.queue = append(r.queue, refEntry{epoch: r.epoch, seq: r.seq, size: size})
	r.pushed++
}

// FuzzOutbox drives random push / attempt / ack / reject / fail / prune /
// restart / overflow sequences against the reference model and checks,
// after every step, the counters, FIFO stamping, and the conservation law
// pushed == Acked + Rejected + Dropped + HandshakePruned + Queued, with
// goodput bytes equal to the acked payload bytes.
func FuzzOutbox(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 1, 2})
	f.Add([]byte{2, 2, 0, 8, 16, 1, 4, 1, 4, 1, 3, 6, 0, 1, 2})
	f.Add([]byte{1, 0, 7, 7, 0, 5, 1, 4, 13, 6, 0, 1, 2, 1, 3})
	f.Add([]byte{3, 1, 0, 0, 0, 0, 1, 4, 1, 2, 21, 5, 0, 7, 6, 1, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		ob := &Outbox{Epoch: 1, Limit: int(data[0] % 5), MaxAttempts: int(data[1] % 4)}
		ref := &refOutbox{limit: ob.Limit, maxAttempts: ob.MaxAttempts, epoch: 1}
		headAttempted := func() bool { return len(ref.queue) > 0 && ref.queue[0].attempts > 0 }
		for step, b := range data[2:] {
			arg := int(b >> 3)
			switch b & 7 {
			case 0, 7: // push; op 7 pushes until the queue overflows
				n := 1
				if b&7 == 7 {
					n = ref.limit + 1
				}
				for i := 0; i < n; i++ {
					msg := transport.Message{Kind: transport.MsgDeletion, SiteID: 3, ModelID: int32(arg), Count: 1}
					if arg%2 == 1 {
						msg.TraceID, msg.SpanID = uint64(arg), 7
					}
					ob.Push(msg)
					ref.push(len(transport.Encode(transport.Message{Kind: msg.Kind, Epoch: 1, Seq: 1})))
				}
			case 1: // attempt
				head := ob.Attempt()
				if len(ref.queue) == 0 {
					if head != nil {
						t.Fatalf("step %d: Attempt on an empty queue returned %+v", step, head)
					}
					continue
				}
				r := &ref.queue[0]
				r.attempts++
				if r.attempts > 1 {
					ref.want.RetransmitBytes += r.size
				}
				checkHead(t, step, head, r)
			case 2: // ack
				if !headAttempted() {
					continue
				}
				ob.Ack()
				ref.want.Acked++
				ref.want.GoodputBytes += ref.queue[0].size
				ref.ackedBytes += ref.queue[0].size
				ref.queue = ref.queue[1:]
			case 3: // reject
				if !headAttempted() {
					continue
				}
				ob.Reject()
				ref.want.Rejected++
				ref.queue = ref.queue[1:]
			case 4: // fail
				if len(ref.queue) == 0 {
					continue
				}
				dropped := ob.Fail()
				ref.want.Retries++
				wantDrop := ref.maxAttempts > 0 && ref.queue[0].attempts >= ref.maxAttempts
				if dropped != wantDrop {
					t.Fatalf("step %d: Fail dropped=%v, want %v", step, dropped, wantDrop)
				}
				if wantDrop {
					ref.queue = ref.queue[1:]
					ref.want.Dropped++
				}
			case 5: // prune to a watermark at or just below the current epoch
				epoch := ref.epoch - uint32(arg%2)
				maxSeq := uint64(arg / 2)
				ob.Prune(epoch, maxSeq)
				var kept []refEntry
				for _, e := range ref.queue {
					if e.epoch < epoch || (e.epoch == epoch && e.seq <= maxSeq) {
						ref.want.HandshakePruned++
						continue
					}
					kept = append(kept, e)
				}
				ref.queue = kept
			case 6: // restart
				ob.Restart()
				ref.want.Dropped += len(ref.queue)
				ref.queue = nil
				ref.epoch++
				ref.seq = 0
			}
			want := ref.want
			want.Queued = len(ref.queue)
			got := ob.Stats()
			if got != want {
				t.Fatalf("step %d (op %d): stats %+v, want %+v", step, b&7, got, want)
			}
			if ob.Len() != len(ref.queue) || ob.Epoch != ref.epoch {
				t.Fatalf("step %d: len %d epoch %d, want %d / %d", step, ob.Len(), ob.Epoch, len(ref.queue), ref.epoch)
			}
			if done := got.Acked + got.Rejected + got.Dropped + got.HandshakePruned + got.Queued; done != ref.pushed {
				t.Fatalf("step %d: conservation: %d pushed != %d accounted (%+v)", step, ref.pushed, done, got)
			}
			if got.GoodputBytes != ref.ackedBytes {
				t.Fatalf("step %d: goodput %d != acked payload bytes %d", step, got.GoodputBytes, ref.ackedBytes)
			}
		}
	})
}

// checkHead verifies the outbox head against the reference head: its
// stamp, its attempt count, and that its payload decodes to that stamp.
func checkHead(t *testing.T, step int, head *Entry, r *refEntry) {
	t.Helper()
	if head == nil || head.Epoch != r.epoch || head.Seq != r.seq || head.Attempts != r.attempts {
		t.Fatalf("step %d: head %+v, want %+v", step, head, *r)
	}
	if len(head.Payload()) != r.size {
		t.Fatalf("step %d: payload %d bytes, want %d", step, len(head.Payload()), r.size)
	}
	msg, err := transport.Decode(head.Payload())
	if err != nil || msg.Epoch != r.epoch || msg.Seq != r.seq || msg.TraceID != 0 {
		t.Fatalf("step %d: payload decodes to %+v (%v), want epoch %d seq %d untraced", step, msg, err, r.epoch, r.seq)
	}
	framed, err := transport.Decode(head.Frame(true))
	if err != nil || framed.TraceID != head.Trace || framed.SpanID != head.Span {
		t.Fatalf("step %d: traced frame decodes to %+v (%v), want trace %d/%d", step, framed, err, head.Trace, head.Span)
	}
}

// TestOutboxStamping pins the stamping rules the fuzz target takes as
// given: SenderID overwrites the site id, a zero epoch keeps the legacy
// unstamped encoding, and the tally counts full frames per epoch.
func TestOutboxStamping(t *testing.T) {
	msg := transport.Message{Kind: transport.MsgDeletion, SiteID: 9, ModelID: 4, Count: 2, TraceID: 5, SpanID: 6}
	for _, tc := range []struct {
		ob       Outbox
		site     int32
		epoch    uint32
		seq      uint64
		wantSize int
	}{
		{Outbox{}, 9, 0, 0, len(transport.Encode(transport.Message{Kind: msg.Kind}))},
		{Outbox{Epoch: 3, SenderID: 12}, 12, 3, 1, len(transport.Encode(transport.Message{Kind: msg.Kind, Epoch: 3, Seq: 1}))},
	} {
		t.Run(fmt.Sprintf("epoch%d", tc.epoch), func(t *testing.T) {
			ob := tc.ob
			ob.Push(msg)
			head := ob.Attempt()
			got, err := transport.Decode(head.Payload())
			if err != nil {
				t.Fatal(err)
			}
			if got.SiteID != tc.site || got.Epoch != tc.epoch || got.Seq != tc.seq || got.TraceID != 0 {
				t.Fatalf("payload %+v, want site %d epoch %d seq %d untraced", got, tc.site, tc.epoch, tc.seq)
			}
			if len(head.Payload()) != tc.wantSize || len(head.Frame(true)) != tc.wantSize+transport.TraceSuffixSize {
				t.Fatalf("payload %d / frame %d bytes, want %d / %d", len(head.Payload()), len(head.Frame(true)),
					tc.wantSize, tc.wantSize+transport.TraceSuffixSize)
			}
			if tally := ob.Sent(tc.epoch); tally.Msgs != 1 || tally.Bytes != tc.wantSize+transport.TraceSuffixSize {
				t.Fatalf("tally %+v, want 1 message of %d bytes", tally, tc.wantSize+transport.TraceSuffixSize)
			}
		})
	}
}
