package dst

import (
	"fmt"

	"cludistream"
	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/linalg"
	"cludistream/internal/query"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// epochCounts tallies the updates applied from one site incarnation —
// the observables the Theorem-2/3 invariants compare against the site's
// own decision counters.
type epochCounts struct {
	newModels     int
	weightUpdates int
	deletions     int
	bytes         int
}

// shadowMark mirrors the coordinator's per-site exactly-once watermark.
type shadowMark struct {
	epoch  uint32
	maxSeq uint64
}

// checker is the invariant suite. It observes every applied coordinator
// update through the facade's OnApply hook, maintains an independent
// exactly-once shadow (its own dedupe watermarks plus a reference
// coordinator fed the same updates), and checks the full suite after each
// one. The first violation is retained; later checks are skipped so the
// artifact pins the earliest deterministic failure point.
type checker struct {
	sc  Scenario
	sys *cludistream.System
	reg *telemetry.Registry
	// tracer backs the trace-conservation invariant (DST always enables
	// tracing before building the checker).
	tracer *telemetry.Tracer

	ref   *coordinator.Coordinator
	marks map[int32]*shadowMark
	// perEpoch is keyed by site ID and reset on epoch advance, so its
	// counts always describe the site's *current* incarnation.
	perEpoch map[int32]*epochCounts

	// curEpoch is each site's live incarnation epoch (1-based), advanced by
	// the runner on every crash. Theorem-2/3 checks compare delivered
	// counts against the live site's decision counters, so they only run
	// on updates from the live epoch — in-flight messages from a dead
	// incarnation may still legitimately arrive right after a crash.
	curEpoch []uint32

	// Query-tier state (snapshot-consistency invariant): the real RCU
	// publisher driven on the virtual clock, a scratch for read-op parity
	// checks, and the pinned snapshots re-verified on every update.
	pub      *query.Publisher
	qscratch *query.Scratch
	held     []heldSnap

	updates   int
	violation *Violation

	// Wire sizes of the v2 encodings, fixed by the scenario's K and Dim.
	newModelWire int
	smallWire    int
}

// newChecker builds the suite; the runner assigns sys before feeding.
func newChecker(sc Scenario, reg *telemetry.Registry) (*checker, error) {
	ref, err := coordinator.New(coordinator.Config{Dim: sc.Dim, Merge: mergeOpts()})
	if err != nil {
		return nil, err
	}
	c := &checker{
		sc:       sc,
		reg:      reg,
		tracer:   reg.Tracer(),
		ref:      ref,
		marks:    make(map[int32]*shadowMark),
		perEpoch: make(map[int32]*epochCounts),
		curEpoch: make([]uint32, sc.NumSites),
		// v2 framing: header (17) + marker/epoch/seq (13); a NewModel adds
		// K, d and K·(1 + d + packed(d)) float64s.
		smallWire: 17 + 13,
	}
	for i := range c.curEpoch {
		c.curEpoch[i] = 1
	}
	if c.tracer != nil {
		// With tracing on, every message carries the 16-byte trace suffix,
		// so the Theorem-3 wire bound prices it in.
		c.smallWire += transport.TraceSuffixSize
	}
	c.newModelWire = c.smallWire + 8 + sc.K*8*(1+sc.Dim+linalg.PackedLen(sc.Dim))
	return c, nil
}

// fail records the first violation, pinned to the current update count
// and virtual clock.
func (c *checker) fail(invariant, detail string) {
	if c.violation != nil {
		return
	}
	c.violation = &Violation{
		Invariant: invariant,
		Detail:    detail,
		Update:    c.updates,
		SimTime:   c.sys.Now(),
	}
}

// beforeCrash is called by the runner just before a site incarnation is
// killed, advancing the checker's view of the live epoch.
func (c *checker) beforeCrash(siteIdx int) { c.curEpoch[siteIdx]++ }

// onApply is the per-update invariant suite, invoked by the system under
// test immediately after it applies a delivered message.
func (c *checker) onApply(msg transport.Message) {
	if c.violation != nil {
		return
	}
	c.updates++

	// Invariant: exactly-once application. The shadow replays the
	// coordinator's dedupe protocol from scratch; any applied message the
	// shadow would have dropped is a duplicate or a stale-epoch leak.
	if msg.Seq == 0 {
		c.fail("exactly-once", fmt.Sprintf("site %d applied an unversioned (v1) message in fault-tolerant mode", msg.SiteID))
		return
	}
	w := c.marks[msg.SiteID]
	if w == nil {
		w = &shadowMark{}
		c.marks[msg.SiteID] = w
	}
	switch {
	case msg.Epoch < w.epoch:
		c.fail("exactly-once", fmt.Sprintf("site %d applied a stale-epoch message: epoch %d < watermark epoch %d", msg.SiteID, msg.Epoch, w.epoch))
		return
	case msg.Epoch > w.epoch:
		if w.epoch != 0 {
			c.ref.ResetSite(int(msg.SiteID))
		}
		w.epoch, w.maxSeq = msg.Epoch, 0
		c.perEpoch[msg.SiteID] = &epochCounts{}
	}
	if msg.Seq <= w.maxSeq {
		c.fail("exactly-once", fmt.Sprintf("site %d epoch %d applied seq %d twice (watermark %d): duplicate delivery was not deduped", msg.SiteID, msg.Epoch, msg.Seq, w.maxSeq))
		return
	}
	w.maxSeq = msg.Seq

	// Feed the reference coordinator the same update and compare the full
	// per-model weight tables: a dedupe bug that slips a duplicate through
	// any other path shows up as a counter mismatch here.
	if err := durable.Apply(c.ref, msg); err != nil {
		c.fail("exactly-once", fmt.Sprintf("reference coordinator rejected replayed update: %v", err))
		return
	}
	if diff := weightsDiff(c.sys.Coordinator().ModelWeights(), c.ref.ModelWeights()); diff != "" {
		c.fail("exactly-once", "coordinator diverged from exactly-once reference: "+diff)
		return
	}

	pc := c.perEpoch[msg.SiteID]
	if pc == nil {
		pc = &epochCounts{}
		c.perEpoch[msg.SiteID] = pc
	}
	switch msg.Kind {
	case transport.MsgNewModel:
		pc.newModels++
	case transport.MsgWeightUpdate:
		pc.weightUpdates++
	case transport.MsgDeletion:
		pc.deletions++
	}
	pc.bytes += msg.WireSize()

	c.checkTrace(msg)
	c.checkSite(int(msg.SiteID), false)
	c.checkConservation()
	c.checkQueryTier()
}

// checkTrace is the per-update half of the trace-conservation invariant:
// with tracing on, an applied message must carry trace context, its trace
// must still be live, the span chain must be contiguous (exactly one root
// "chunk" span; every other parent resolves within the trace), and an
// "apply" span must exist by the time OnApply fires.
func (c *checker) checkTrace(msg transport.Message) {
	if c.violation != nil || c.tracer == nil {
		return
	}
	if msg.TraceID == 0 {
		c.fail("trace-conservation", fmt.Sprintf("site %d applied a message with no trace context while tracing is enabled", msg.SiteID))
		return
	}
	tr, ok := c.tracer.TraceByID(msg.TraceID)
	if !ok {
		c.fail("trace-conservation", fmt.Sprintf("site %d: applied message's trace %d is missing from the active table", msg.SiteID, msg.TraceID))
		return
	}
	ids := make(map[uint64]bool, len(tr.Spans))
	for _, sp := range tr.Spans {
		ids[sp.ID] = true
	}
	roots, applies := 0, 0
	for _, sp := range tr.Spans {
		switch {
		case sp.Parent == 0:
			roots++
			if sp.Name != "chunk" {
				c.fail("trace-conservation", fmt.Sprintf("trace %d: root span is %q, want \"chunk\"", tr.ID, sp.Name))
				return
			}
		case !ids[sp.Parent]:
			c.fail("trace-conservation", fmt.Sprintf("trace %d: span %q (id %d) has parent %d outside the trace — broken causal chain", tr.ID, sp.Name, sp.ID, sp.Parent))
			return
		}
		if sp.Name == "apply" {
			applies++
		}
	}
	if roots != 1 {
		c.fail("trace-conservation", fmt.Sprintf("trace %d: %d root spans, want exactly 1", tr.ID, roots))
		return
	}
	if applies == 0 {
		c.fail("trace-conservation", fmt.Sprintf("trace %d: message applied but no apply span was recorded", tr.ID))
	}
}

// checkSite verifies the originating site's paper structures: the event
// list (Algorithm 1's ⟨model ID, start, end⟩ table), Theorem-2 fit-test
// soundness, the Theorem-3 communication and memory bounds, and the
// site's own decision-counter conservation. final additionally requires
// the delivered counts to have caught up exactly (everything emitted in
// the current epoch applied once).
func (c *checker) checkSite(siteID int, final bool) {
	if c.violation != nil {
		return
	}
	st := c.sys.Site(siteID - 1)
	stats := st.Stats()

	// Conservation: every processed chunk took exactly one of the three
	// Algorithm-1 exits.
	if stats.Chunks != stats.Fits+stats.Refits+stats.Reactivated {
		c.fail("conservation", fmt.Sprintf("site %d: %d chunks != %d fits + %d refits + %d reactivated", siteID, stats.Chunks, stats.Fits, stats.Refits, stats.Reactivated))
		return
	}

	// Invariant: event-list consistency. Closed spans are contiguous from
	// chunk 1, non-overlapping, and every chunk up to ChunksSeen is
	// governed — by a closed span or by the open span of the current model.
	prevEnd := 0
	models := make(map[int]bool)
	for _, m := range st.Models() {
		models[m.ID] = true
	}
	for _, e := range st.Events().All() {
		if e.StartChunk != prevEnd+1 {
			c.fail("event-list", fmt.Sprintf("site %d: span %v does not start at chunk %d: gap or overlap", siteID, e, prevEnd+1))
			return
		}
		if e.EndChunk < e.StartChunk {
			c.fail("event-list", fmt.Sprintf("site %d: inverted span %v", siteID, e))
			return
		}
		if !models[e.ModelID] {
			c.fail("event-list", fmt.Sprintf("site %d: span %v references a model missing from the model list", siteID, e))
			return
		}
		prevEnd = e.EndChunk
	}
	if prevEnd > st.ChunksSeen() {
		c.fail("event-list", fmt.Sprintf("site %d: closed spans cover %d chunks but only %d chunks were seen", siteID, prevEnd, st.ChunksSeen()))
		return
	}
	if st.ChunksSeen() > 0 && st.Current() == nil {
		c.fail("event-list", fmt.Sprintf("site %d: %d chunks seen but no current model governs chunks %d..%d", siteID, st.ChunksSeen(), prevEnd+1, st.ChunksSeen()))
		return
	}

	// Invariant: Theorem-2 fit-test soundness. A chunk that fits transmits
	// nothing (landmark mode), so the coordinator can never apply more
	// NewModel messages than the site ran refits, nor more weight updates
	// than reactivations (plus fits, in sliding mode where fitting chunks
	// emit weight updates by design). Delivered counts describe whichever
	// epoch the coordinator last applied; they are only comparable to the
	// live site's counters once that is the live incarnation's epoch.
	if w := c.marks[int32(siteID)]; w == nil || w.epoch != c.curEpoch[siteID-1] {
		if final {
			c.fail("delivery", fmt.Sprintf("site %d: live incarnation (epoch %d) never reached the coordinator after drain", siteID, c.curEpoch[siteID-1]))
		}
		return
	}
	pc := c.perEpoch[int32(siteID)]
	if pc == nil {
		pc = &epochCounts{}
	}
	if c.sc.Sliding > 0 {
		// Sliding mode: every chunk carries exactly one update (fits emit
		// weight updates by design, and a weight update whose model the
		// coordinator deleted is upgraded to a NewModel synopsis), so the
		// sound bound is on the total.
		sent := stats.Refits + stats.Reactivated + stats.Fits
		if got := pc.newModels + pc.weightUpdates; got > sent {
			c.fail("fit-soundness", fmt.Sprintf("site %d: %d updates applied but only %d chunks warranted one", siteID, got, sent))
			return
		}
		if final {
			if got := pc.newModels + pc.weightUpdates; got != sent {
				c.fail("fit-soundness", fmt.Sprintf("site %d after drain: %d updates applied != %d chunks processed — an update was lost or double-applied", siteID, got, sent))
				return
			}
		}
	} else {
		if pc.newModels > stats.Refits {
			c.fail("fit-soundness", fmt.Sprintf("site %d: %d NewModel messages applied but only %d refits ran — a fitting chunk transmitted a model", siteID, pc.newModels, stats.Refits))
			return
		}
		if pc.weightUpdates > stats.Reactivated {
			c.fail("fit-soundness", fmt.Sprintf("site %d: %d weight updates applied but only %d chunks reactivated a model", siteID, pc.weightUpdates, stats.Reactivated))
			return
		}
		if final {
			if pc.newModels != stats.Refits {
				c.fail("fit-soundness", fmt.Sprintf("site %d after drain: %d NewModel messages applied != %d refits — an update was lost or double-applied", siteID, pc.newModels, stats.Refits))
				return
			}
			if pc.weightUpdates != stats.Reactivated {
				c.fail("fit-soundness", fmt.Sprintf("site %d after drain: %d weight updates applied != %d reactivations", siteID, pc.weightUpdates, stats.Reactivated))
				return
			}
		}
	}

	// Invariant: Theorem-3 communication-cost bound. Applied traffic from
	// the current incarnation is bounded by its transmitting decisions
	// priced at the exact wire sizes.
	if bound := pc.newModels*c.newModelWire + (pc.weightUpdates+pc.deletions)*c.smallWire; pc.bytes > bound {
		c.fail("comm-bound", fmt.Sprintf("site %d: %d bytes applied > %d-byte bound (%d new models, %d weight updates, %d deletions)", siteID, pc.bytes, bound, pc.newModels, pc.weightUpdates, pc.deletions))
		return
	}

	// Invariant: Theorem-3 memory bound — B·K·(d²+d+1) floats for the
	// model list plus M·d for the chunk buffer.
	d := c.sc.Dim
	if limit := 8 * len(st.Models()) * c.sc.K * (d*d + d + 1); st.ModelListBytes() > limit {
		c.fail("memory-bound", fmt.Sprintf("site %d: model list %d bytes > Theorem-3 bound %d", siteID, st.ModelListBytes(), limit))
		return
	}
	if st.BufferBytes() != 8*c.sys.ChunkSize()*d {
		c.fail("memory-bound", fmt.Sprintf("site %d: buffer %d bytes != 8·M·d = %d", siteID, st.BufferBytes(), 8*c.sys.ChunkSize()*d))
		return
	}
}

// checkConservation verifies the delivery-layer conservation laws: every
// sent byte is either goodput or dropped, retransmissions never exceed
// total traffic, and the telemetry counters agree with the simulator's
// own accounting.
func (c *checker) checkConservation() {
	if c.violation != nil {
		return
	}
	d := c.sys.DeliveryStats()
	total := c.sys.TotalBytes()
	if total != d.GoodputBytes+d.DroppedBytes {
		c.fail("conservation", fmt.Sprintf("bytes sent %d != goodput %d + dropped %d", total, d.GoodputBytes, d.DroppedBytes))
		return
	}
	if d.RetransmitBytes > total {
		c.fail("conservation", fmt.Sprintf("retransmit bytes %d > total bytes %d", d.RetransmitBytes, total))
		return
	}
	for name, want := range map[string]int{
		"sim.bytes_sent":       total,
		"sim.goodput_bytes":    d.GoodputBytes,
		"sim.retransmit_bytes": d.RetransmitBytes,
		"sim.dropped_bytes":    d.DroppedBytes,
		"sim.dup_delivered":    d.DupDelivered,
		"sim.courier_retries":  d.Retries,
		"coord.dedupe_dropped": d.Duplicates,
		"coord.epoch_resets":   d.SiteResets,
	} {
		if got := c.reg.Counter(name).Value(); got != int64(want) {
			c.fail("conservation", fmt.Sprintf("telemetry counter %s = %d disagrees with simulator accounting %d", name, got, want))
			return
		}
	}

	// Trace-conservation, aggregate half: the cumulative span counts must
	// reconcile with the delivery-layer accounting. Every link transmission
	// records exactly one wire-send span; every delivered payload records
	// exactly one dedupe span (admitted → applied, dropped → Duplicates);
	// and every live apply records exactly one apply span. WAL replay after
	// a coordinator restart re-applies updates through the same handlers
	// without OnApply, so apply spans may only exceed the applied count
	// when the run actually restarted the coordinator.
	if c.tracer != nil {
		if got, want := c.tracer.SpanCount("wire-send"), int64(c.sys.TotalMessages()); got != want {
			c.fail("trace-conservation", fmt.Sprintf("%d wire-send spans recorded but the links transmitted %d messages", got, want))
			return
		}
		if got, want := c.tracer.SpanCount("dedupe"), int64(c.updates+d.Duplicates); got != want {
			c.fail("trace-conservation", fmt.Sprintf("%d dedupe spans != %d applied + %d dedupe-dropped deliveries", got, c.updates, d.Duplicates))
			return
		}
		applySpans := c.tracer.SpanCount("apply")
		if applySpans < int64(c.updates) {
			c.fail("trace-conservation", fmt.Sprintf("%d apply spans < %d applied updates", applySpans, c.updates))
			return
		}
		if c.sys.Recovery().Restarts == 0 && applySpans != int64(c.updates) {
			c.fail("trace-conservation", fmt.Sprintf("%d apply spans != %d applied updates with no coordinator restart to explain the surplus", applySpans, c.updates))
			return
		}
	}
}

// finalChecks runs after Drain on a violation-free run: no update may
// still be pending, the per-site delivered counts must equal the sites'
// decision counters exactly, and the coordinator must have converged to
// the fault-free reference — same canonical fingerprint, same per-model
// weights — regardless of the delivery schedule.
func (c *checker) finalChecks(cleanFP uint64, cleanWeights []coordinator.ModelWeight) {
	if c.violation != nil {
		return
	}
	if d := c.sys.DeliveryStats(); d.Pending != 0 {
		c.fail("delivery", fmt.Sprintf("%d payloads still pending in couriers after drain", d.Pending))
		return
	}
	for i := 0; i < c.sys.NumSites(); i++ {
		c.checkSite(i+1, true)
	}
	c.checkConservation()
	// Snapshots pinned mid-run must still serve their publish-time state
	// after the drain's final merges and compactions.
	c.recheckHeldSnapshots()
	if c.violation != nil {
		return
	}
	if fp := Fingerprint(c.sys.GlobalMixture()); fp != cleanFP {
		c.fail("schedule-independence", fmt.Sprintf("final global mixture fingerprint %016x != fault-free replay %016x", fp, cleanFP))
		return
	}
	if diff := weightsDiff(c.sys.Coordinator().ModelWeights(), cleanWeights); diff != "" {
		c.fail("schedule-independence", "final model weights diverged from fault-free replay: "+diff)
	}
}

// weightsDiff compares two sorted ModelWeight tables, returning "" when
// identical and a one-line description of the first difference otherwise.
func weightsDiff(got, want []coordinator.ModelWeight) string {
	if len(got) != len(want) {
		return fmt.Sprintf("%d models registered, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Sprintf("model %d/%d: got site %d model %d counter %d, want site %d model %d counter %d",
				i, len(got), got[i].SiteID, got[i].ModelID, got[i].Counter, want[i].SiteID, want[i].ModelID, want[i].Counter)
		}
	}
	return ""
}
