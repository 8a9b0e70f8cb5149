package uplink

import (
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/transport"
	"cludistream/internal/window"
)

// Emitter is the site side of the send path: it feeds records to a site
// and returns the wire messages each one produced — the site's updates,
// then, with a sliding window, the deletions of the chunks that left it
// (Section 7). Not safe for concurrent use.
type Emitter struct {
	st      *site.Site
	tracker *window.Tracker // nil: landmark window
	// outstanding mirrors each model's net record count at the receiver
	// (sends minus deletions, in emission order; delivery is FIFO, so the
	// mirror matches the receiver's state when each message is applied).
	outstanding map[int]int
}

// NewEmitter wraps st. A positive horizon (in chunks) ages records out of
// a sliding window; zero keeps the landmark window.
func NewEmitter(st *site.Site, horizonChunks int) (*Emitter, error) {
	e := &Emitter{st: st, outstanding: map[int]int{}}
	if horizonChunks != 0 {
		tr, err := window.NewTracker(st, horizonChunks) // refuses < 1
		if err != nil {
			return nil, err
		}
		e.tracker = tr
	}
	return e, nil
}

// Site returns the wrapped site.
func (e *Emitter) Site() *site.Site { return e.st }

// Observe feeds x to the site and returns the messages to send, in order.
//
// A WeightUpdate for a model whose outstanding count has drained to zero
// is upgraded to a full NewModel: every record of that model left the
// window, so the receiver deleted it (Section 7's rule) and would refuse a
// bare weight update for an unknown model. The site cannot know this;
// only the sender, which also emits the deletions, can. Deletions carry
// the trace of the chunk whose completion expired them (zeros when
// tracing is off).
func (e *Emitter) Observe(x linalg.Vector) ([]transport.Message, error) {
	ups, err := e.st.Observe(x)
	if err != nil {
		return nil, err
	}
	var out []transport.Message
	for _, u := range ups {
		if u.Kind == site.WeightUpdate && e.outstanding[u.ModelID] <= 0 {
			for _, m := range e.st.Models() {
				if m.ID == u.ModelID {
					u.Kind, u.Mixture = site.NewModel, m.Mixture
					break
				}
			}
		}
		e.outstanding[u.ModelID] += u.Count
		out = append(out, transport.FromSiteUpdate(u))
	}
	if e.tracker == nil {
		return out, nil
	}
	trace, span := e.st.LastTrace()
	for _, d := range e.tracker.Expire(e.st.ID()) {
		e.outstanding[d.ModelID] -= d.Count
		out = append(out, transport.Message{
			Kind:    transport.MsgDeletion,
			SiteID:  int32(d.SiteID),
			ModelID: int32(d.ModelID),
			Count:   int64(d.Count),
			TraceID: trace,
			SpanID:  span,
		})
	}
	return out, nil
}
