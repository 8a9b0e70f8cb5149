package netio

import (
	"time"

	"cludistream/internal/gaussian"
	"cludistream/internal/hier"
	"cludistream/internal/uplink"
)

// Uploader maintains an internal node's presence at its parent coordinator
// (the multi-layer network of Section 7 over real links): each Sync call
// compares the node's current merged mixture against the last uploaded one
// and, when it changed, replaces the stale upload with a deletion followed
// by a fresh model message. Unchanged mixtures transmit nothing — the same
// stability property the leaf sites have. The change-detection and
// message-construction logic lives in hier.UploadMirror (embedded, so
// WeightTol/MeanTol remain settable fields); this type binds it to a
// connection.
type Uploader struct {
	conn *Conn
	*hier.UploadMirror
}

// NewUploader wraps a connection for node nodeID (the pseudo-site id the
// parent sees).
func NewUploader(conn *Conn, nodeID int) *Uploader {
	return &Uploader{conn: conn, UploadMirror: hier.NewUploadMirror(nodeID)}
}

// UploaderPolicy is the retry policy of an aggregator's connection to its
// parent: node nodeID announces a fresh incarnation derived from its
// process start (uplink.Incarnation), so its first upload after a restart
// replaces the dead incarnation's mixture at the parent, and every
// connection runs the restart handshake under the node id.
func UploaderPolicy(nodeID int, start time.Time) RetryPolicy {
	return RetryPolicy{Epoch: uplink.Incarnation(0, start), SiteID: int32(nodeID)}
}

// Sync uploads mix (with total record weight) if it differs materially
// from the last uploaded model. It reports whether a transmission
// happened. A nil mix is a no-op. On a send error the mirror is
// invalidated so the next Sync retries the upload.
func (u *Uploader) Sync(mix *gaussian.Mixture, totalWeight float64) (bool, error) {
	msgs := u.UploadMirror.Sync(mix, totalWeight)
	for _, m := range msgs {
		if err := u.conn.Send(m); err != nil {
			u.Invalidate()
			return false, err
		}
	}
	return len(msgs) > 0, nil
}
