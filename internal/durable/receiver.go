package durable

import (
	"bytes"

	"cludistream/internal/coordinator"
	"cludistream/internal/persist"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// Receiver is the coordinator's one receive pipeline: WAL-append →
// dedupe-admit → reset-or-apply → checkpoint, run by the simulated facade,
// the tree deployment, the TCP server and WAL replay alike. It does no I/O
// of its own beyond the optional store; decoding, locking, acks and what
// to do about an error stay with the caller. Not safe for concurrent use.
//
// The fields may be swapped between steps — a recovered coordinator,
// table and store replace the crashed ones — and the counters carry on.
type Receiver struct {
	Coord  *coordinator.Coordinator
	Dedupe *Dedupe
	// Store, when non-nil, logs every frame before the dedupe verdict (so
	// replay re-runs the identical byte stream) and checkpoints when due.
	Store *Store
	// Tracer, when non-nil, records the wal-append and dedupe spans and
	// hands each deletion's trace context to the coordinator.
	Tracer *telemetry.Tracer
	// Tele mirrors the counters into telemetry (nil fields are no-ops).
	Tele ReceiveTele

	stats ReceiveStats
}

// ReceiveStats is the receive-side accounting.
type ReceiveStats struct {
	// BytesIn counts every payload byte handed to Step, duplicates and
	// WAL-refused frames included.
	BytesIn int
	// Applied counts every admitted frame, including ones whose apply
	// failed.
	Applied int
	// ApplyErrors counts admitted frames the coordinator rejected.
	ApplyErrors int
	// Duplicates / DuplicateBytes count dropped retransmissions and
	// stale-epoch frames.
	Duplicates     int
	DuplicateBytes int
	// SiteResets counts epoch bumps that discarded a dead incarnation.
	SiteResets int
}

// ReceiveTele holds the telemetry counters that mirror ReceiveStats.
type ReceiveTele struct {
	BytesIn, Applied, ApplyErrors          *telemetry.Counter
	Duplicates, DuplicateBytes, SiteResets *telemetry.Counter
}

// Result is the outcome of one Step. The three errors are kept apart
// because callers treat them differently: a WAL refusal means the frame
// was not taken at all and must be delivered again, an apply error is a
// final rejection of an admitted frame, and a checkpoint error only
// lengthens the next replay.
type Result struct {
	Verdict       Verdict
	WALErr        error
	ApplyErr      error
	CheckpointErr error
}

// Admitted reports whether the frame passed the dedupe table and was
// handed to the coordinator.
func (r Result) Admitted() bool {
	return r.WALErr == nil && (r.Verdict == AdmitFresh || r.Verdict == AdmitNewEpoch)
}

// Err returns the first error of the step, in pipeline order.
func (r Result) Err() error {
	switch {
	case r.WALErr != nil:
		return r.WALErr
	case r.ApplyErr != nil:
		return r.ApplyErr
	}
	return r.CheckpointErr
}

// Step runs one decoded frame through the pipeline. payload is the frame's
// wire encoding, the bytes the WAL logs.
func (r *Receiver) Step(payload []byte, msg transport.Message) Result {
	r.stats.BytesIn += len(payload)
	r.Tele.BytesIn.Add(int64(len(payload)))
	if r.Store != nil {
		// Log before mutating anything: a frame the WAL cannot hold leaves
		// the watermark untouched, so its redelivery is admitted, not
		// dropped as a duplicate.
		span := r.Tracer.Begin(msg.TraceID, msg.SpanID, "wal-append", int(msg.SiteID), int(msg.ModelID))
		err := r.Store.Append(payload)
		span.End(len(payload), "")
		if err != nil {
			return Result{WALErr: err}
		}
	}
	res := Result{Verdict: r.Dedupe.Admit(msg.SiteID, msg.Epoch, msg.Seq)}
	// Unversioned (v1) frames bypass the table, so they get no verdict span.
	if r.Tracer != nil && msg.TraceID != 0 && msg.Seq != 0 {
		now := r.Tracer.Now()
		r.Tracer.Record(msg.TraceID, msg.SpanID, "dedupe",
			int(msg.SiteID), int(msg.ModelID), now, now, 0, res.Verdict.note())
	}
	switch res.Verdict {
	case DropStale, DropDuplicate:
		r.stats.Duplicates++
		r.stats.DuplicateBytes += len(payload)
		r.Tele.Duplicates.Inc()
		r.Tele.DuplicateBytes.Add(int64(len(payload)))
		return res
	case AdmitNewEpoch:
		r.Coord.ResetSite(int(msg.SiteID))
		r.stats.SiteResets++
		r.Tele.SiteResets.Inc()
	}
	r.stats.Applied++
	r.Tele.Applied.Inc()
	if r.Tracer != nil && msg.Kind == transport.MsgDeletion {
		// Deletions carry no site.Update, so their trace context rides in
		// side-band; HandleUpdate reads it off the update itself.
		r.Coord.SetTraceContext(msg.TraceID, msg.SpanID)
	}
	if res.ApplyErr = Apply(r.Coord, msg); res.ApplyErr != nil {
		r.stats.ApplyErrors++
		r.Tele.ApplyErrors.Inc()
	}
	if r.Store != nil && r.Store.NeedCheckpoint() {
		res.CheckpointErr = r.Store.Checkpoint(r.Coord, r.Dedupe)
	}
	return res
}

// Stats returns the accumulated receive counters.
func (r *Receiver) Stats() ReceiveStats { return r.stats }

// StateBytes serializes the state a checkpoint would persist now — the
// form a crash self-check compares before and after recovery. It needs a
// Store.
func (r *Receiver) StateBytes() ([]byte, error) {
	var buf bytes.Buffer
	if err := persist.SaveCoordinatorState(&buf, r.Store.state(r.Coord, r.Dedupe)); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Apply hands one transport message to the coordinator: deletions to
// HandleDeletion, everything else to HandleUpdate.
func Apply(coord *coordinator.Coordinator, msg transport.Message) error {
	if msg.Kind == transport.MsgDeletion {
		return coord.HandleDeletion(int(msg.SiteID), int(msg.ModelID), int(msg.Count))
	}
	return coord.HandleUpdate(msg.ToSiteUpdate())
}

// note is the verdict's label on the trace's "dedupe" span.
func (v Verdict) note() string {
	switch v {
	case DropDuplicate:
		return "dup"
	case DropStale:
		return "stale"
	case AdmitNewEpoch:
		return "new-epoch"
	default:
		return "admit"
	}
}
