package main

import (
	"fmt"
	"sort"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/persist"
	"cludistream/internal/query"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
)

// The receive side runs inside netio.Server (and inside tree nodes), out
// of the benchmark's reach. It is timed by replaying the exact frames each
// coordinator applied, in apply order, through the same public calls the
// server makes: transport.Decode, durable.Store.Append, Dedupe.Admit,
// coordinator.HandleUpdate/HandleDeletion and Store.Checkpoint. The
// replayed coordinator must land on the live one's version and weight,
// which proves the replay is the run that happened.

// ledgerRow is one layer's self time in a traced run.
type ledgerRow struct {
	layer  string
	selfMs float64
	calls  int
}

// replayStats are the per-call durations of one replay.
type replayStats struct {
	decode, encode, append, admit, ckpt []time.Duration
	apply                               map[string][]time.Duration // by message kind
	bytes                               map[string][]int           // payload sizes by kind
}

func kindName(k transport.MsgKind) string {
	switch k {
	case transport.MsgDeletion:
		return "deletion"
	case transport.MsgWeightUpdate:
		return "weight_update"
	default:
		return "new_model"
	}
}

// replayFrames re-runs frames through a fresh durable coordinator. graft
// receives each frame's spans (decode, encode, append, admit, apply,
// checkpoint) so the caller can hang them under the send that carried it.
func replayFrames(frames [][]byte, dir string, graft func(msg transport.Message, spans []span)) (*replayStats, *coordinator.Coordinator, *durable.Store, error) {
	reg := telemetry.NewRegistry()
	store, rec, err := durable.Open(dir, coordinator.Config{Dim: dim, Telemetry: reg}, durable.Options{
		CheckpointEvery: checkpointEvery, Fsync: persist.FsyncAlways, Telemetry: reg,
	})
	if err != nil {
		return nil, nil, nil, err
	}
	coord, ded := rec.Coord, rec.Dedupe
	rs := &replayStats{apply: map[string][]time.Duration{}, bytes: map[string][]int{}}
	for _, payload := range frames {
		t0 := time.Now()
		msg, err := transport.Decode(payload)
		t1 := time.Now()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("replay decode: %w", err)
		}
		// The sender's encode, timed on the decoded message: decoding
		// renormalizes mixture weights, so the bytes may differ in the
		// last bits but the work is the same.
		transport.Encode(msg)
		t2 := time.Now()
		if err := store.Append(payload); err != nil {
			return nil, nil, nil, err
		}
		t3 := time.Now()
		verdict := ded.Admit(msg.SiteID, msg.Epoch, msg.Seq)
		t4 := time.Now()
		if verdict != durable.AdmitFresh {
			return nil, nil, nil, fmt.Errorf("replay: frame (site %d, seq %d) not admitted fresh", msg.SiteID, msg.Seq)
		}
		kind := kindName(msg.Kind)
		if msg.Kind == transport.MsgDeletion {
			err = coord.HandleDeletion(int(msg.SiteID), int(msg.ModelID), int(msg.Count))
		} else {
			err = coord.HandleUpdate(msg.ToSiteUpdate())
		}
		t5 := time.Now()
		if err != nil {
			return nil, nil, nil, fmt.Errorf("replay apply: %w", err)
		}
		var ckpt time.Duration
		if store.NeedCheckpoint() {
			if err := store.Checkpoint(coord, ded); err != nil {
				return nil, nil, nil, err
			}
			ckpt = time.Since(t5)
			rs.ckpt = append(rs.ckpt, ckpt)
		}
		rs.decode = append(rs.decode, t1.Sub(t0))
		rs.encode = append(rs.encode, t2.Sub(t1))
		rs.append = append(rs.append, t3.Sub(t2))
		rs.admit = append(rs.admit, t4.Sub(t3))
		rs.apply[kind] = append(rs.apply[kind], t5.Sub(t4))
		rs.bytes[kind] = append(rs.bytes[kind], len(payload))
		if graft != nil {
			ss := []span{
				{Name: "transport.Decode", Dur: t1.Sub(t0), N: 1, Agg: true},
				{Name: "transport.Encode", Dur: t2.Sub(t1), N: 1, Agg: true},
				{Name: "durable.Append", Dur: t3.Sub(t2), N: 1, Agg: true},
				{Name: "durable.Admit", Dur: t4.Sub(t3), N: 1, Agg: true},
				{Name: "coordinator.apply." + kind, Dur: t5.Sub(t4), N: 1, Agg: true},
			}
			if ckpt > 0 {
				ss = append(ss, span{Name: "durable.Checkpoint", Dur: ckpt, N: 1, Agg: true})
			}
			graft(msg, ss)
		}
	}
	return rs, coord, store, nil
}

func meanDur(ds []time.Duration) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	var s time.Duration
	for _, d := range ds {
		s += d
	}
	return s / time.Duration(len(ds))
}

func meanF(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func meanI(xs []int) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s int
	for _, x := range xs {
		s += x
	}
	return float64(s) / float64(len(xs))
}

func toUs(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }
func toMs(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// pctOr0 is a percentile for a per-layer metric: 0 when the samples
// cannot support it (the table says so).
func pctOr0(xs []float64, p int) float64 {
	v, err := percentile(xs, p)
	if err != nil {
		return 0
	}
	return v
}

// ledgerLayers are the layers of the self-time table, in module order.
var ledgerLayers = []string{"load", "site", "window", "transport", "netio", "durable", "coordinator", "query", "tree"}

// buildLedger reduces spans to self time per layer.
func buildLedger(res *result, spans []span) map[string]time.Duration {
	self := layerSelf(spans)
	calls := map[string]int{}
	for i := range spans {
		calls[layerOf(spans[i].Name)] += spans[i].N
	}
	for _, l := range ledgerLayers {
		res.ledger = append(res.ledger, ledgerRow{layer: l, selfMs: toMs(self[l]), calls: calls[l]})
	}
	return self
}

// siteMetrics adds the site layer's per-layer metrics from closed-chunk
// samples, the sites' own counters and the site spans.
func siteMetrics(res *result, stats []site.Stats, t4 []t4sample, spans []span, loadTime time.Duration) error {
	var st site.Stats
	for _, s := range stats {
		st.Records += s.Records
		st.Chunks += s.Chunks
		st.Tests += s.Tests
		st.Refits += s.Refits
		st.WarmRefits += s.WarmRefits
		st.PruneHits += s.PruneHits
		st.PruneFallbacks += s.PruneFallbacks
		st.StatCacheHits += s.StatCacheHits
		st.StatCacheMisses += s.StatCacheMisses
	}
	var recDur, siteDur time.Duration
	var recN int
	var fitC, fitT, refitC, refitT []float64
	var fitUs, refitMs []float64
	for i := range spans {
		sp := &spans[i]
		if layerOf(sp.Name) == "site" {
			siteDur += sp.dur()
		}
		if sp.Name == "site.Observe" {
			recDur += sp.dur()
			recN += sp.N
		}
	}
	for _, s := range t4 {
		if s.refit {
			refitC = append(refitC, float64(s.cost))
			refitT = append(refitT, float64(s.tests))
			refitMs = append(refitMs, toMs(s.cost))
		} else {
			fitC = append(fitC, float64(s.cost))
			fitT = append(fitT, float64(s.tests))
			fitUs = append(fitUs, toUs(s.cost))
		}
	}
	ratio := func(a, b int) float64 {
		if b == 0 {
			return 0
		}
		return float64(a) / float64(b)
	}
	if recN > 0 {
		res.add("site.record_ns", "ns", float64(recDur)/float64(recN))
	} else {
		res.add("site.record_ns", "ns", 0)
	}
	res.add("site.test_us", "us", meanF(fitUs))
	res.add("site.refit_ms", "ms", meanF(refitMs))
	res.add("site.tests_per_chunk", "ratio", ratio(st.Tests, st.Chunks))
	res.add("site.prune_hit_ratio", "fraction", ratio(st.PruneHits, st.PruneHits+st.PruneFallbacks))
	res.add("site.stat_cache_hit_ratio", "fraction", ratio(st.StatCacheHits, st.StatCacheHits+st.StatCacheMisses))
	res.add("site.warm_refit_ratio", "fraction", ratio(st.WarmRefits, st.Refits))
	busy := 0.0
	if loadTime > 0 {
		busy = float64(siteDur) / float64(loadTime)
	}
	res.add("site.busy_frac", "fraction", busy)
	t4r := 0.0
	if f, ok := theorem4(fitC, fitT, refitC, refitT, float64(siteDur)/float64(max(st.Chunks, 1))); ok {
		t4r = f.Ratio
		res.note("site.theorem4", fmt.Sprintf("λC %.1f us, C %.2f ms, λ %.4f, P_d %.4f: predicted %.1f us/chunk, measured %.1f us/chunk",
			f.LambdaC/1e3, f.C/1e6, f.Lambda, f.Pd, f.Predicted/1e3, f.Measured/1e3))
	} else {
		res.note("site.theorem4", "not fitted: the run had no fitting or no refit chunk")
	}
	res.add("site.theorem4_ratio", "ratio", t4r)
	return nil
}

// zeroLayer reports a layer's metrics as 0 on a workload whose path
// does not include that layer.
func zeroLayer(res *result, names map[string]string) {
	keys := make([]string, 0, len(names))
	for k := range names {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		res.add(k, names[k], 0)
	}
}

// tcpLedger computes the per-layer metrics of a traced TCP run.
func tcpLedger(res *result, w *tcpWorkload, s *tcpSys, p *tcpPass, pool [][]float64, rec *recorder, overhead float64) error {
	frames, err := s.loop.frames()
	if err != nil {
		return gateErr("wal-capture", err)
	}
	ds := s.srv.DeliveryStats()
	if len(frames) != ds.Applied+ds.Duplicates {
		return gateErr("wal-capture", fmt.Errorf("captured %d frames, server logged %d", len(frames), ds.Applied+ds.Duplicates))
	}
	// Hang each frame's receive-side spans under the Conn.Send that
	// carried it.
	bySite := map[int32]*feeder{}
	for _, f := range s.feeders {
		bySite[int32(f.id)] = f
	}
	var grafted []span
	graft := func(msg transport.Message, ss []span) {
		parent := bySite[msg.SiteID].sendSpan[msg.Seq]
		for _, sp := range ss {
			sp.ID, sp.Parent, sp.Trace = rec.id(), parent, parent
			grafted = append(grafted, sp)
		}
	}
	rs, rcoord, rstore, err := replayFrames(frames, s.dir+"-replay", graft)
	if err != nil {
		return gateErr("replay-fidelity", err)
	}
	rstore.Close()
	var live coordinator.Stats
	var liveVer uint64
	var liveW float64
	var groups, leaves int
	s.srv.Snapshot(func(c *coordinator.Coordinator) {
		live, liveVer, liveW, groups, leaves = c.Stats(), c.MixtureVersion(), c.TotalWeight(), len(c.Groups()), c.NumLeaves()
	})
	if rcoord.MixtureVersion() != liveVer || rcoord.TotalWeight() != liveW || rcoord.NumLeaves() != leaves {
		return gateErr("replay-fidelity", fmt.Errorf("replayed coordinator version %d weight %v leaves %d, live %d %v %d",
			rcoord.MixtureVersion(), rcoord.TotalWeight(), rcoord.NumLeaves(), liveVer, liveW, leaves))
	}

	// Publish-loop and read spans, recorded by the benchmark's own loop
	// and reader.
	s.loop.mu.Lock()
	lockMs, mixMs, pubMs := s.loop.lockMs, s.loop.mixMs, s.loop.pubMs
	s.loop.mu.Unlock()
	msDur := func(xs []float64) time.Duration {
		var t float64
		for _, x := range xs {
			t += x
		}
		return time.Duration(t * float64(time.Millisecond))
	}
	extra := []span{
		rec.agg("coordinator.Snapshot.wait", 0, 0, len(lockMs), msDur(lockMs)),
		rec.agg("coordinator.GlobalMixture", 0, 0, len(mixMs), msDur(mixMs)),
		rec.agg("query.Publish", 0, 0, len(pubMs), msDur(pubMs)),
		rec.agg("query.batch", 0, 0, len(p.reader.lat), msDur(p.reader.lat)),
	}
	spans := append(append(rec.all(), grafted...), extra...)
	counts := spanCounts(spans)

	// Reconciliation: span counts equal the program's own counters.
	var stats []site.Stats
	var records, chunks, acked, deletions int
	var t4 []t4sample
	var retrans, reconnects int
	var highWater float64
	var sendMs []float64
	var sendTime, loadTime time.Duration
	for _, f := range s.feeders {
		st := f.st.Stats()
		stats = append(stats, st)
		records += st.Records
		chunks += st.Chunks
		d := f.conn.Delivery()
		acked += d.Acked
		retrans += d.RetransmitBytes
		reconnects += d.Reconnects
		deletions += f.deletions
		t4 = append(t4, f.t4...)
		sendMs = append(sendMs, f.sendMs...)
		sendTime += f.sendTime
		if hw := f.reg.Gauge("net.outbox_high_water").Value(); hw > highWater {
			highWater = hw
		}
	}
	for i := range spans {
		if spans[i].Name == "load.chunk" {
			loadTime += spans[i].dur()
		}
	}
	checks := []struct {
		what      string
		spans, by int
	}{
		{"site.Observe* vs site.Stats.Records", counts["site.Observe"] + counts["site.Observe.fit"] + counts["site.Observe.refit"], records},
		{"site.Observe.fit+refit vs site.Stats.Chunks", counts["site.Observe.fit"] + counts["site.Observe.refit"], chunks},
		{"netio.Send vs Conn.Delivery.Acked", counts["netio.Send"], acked},
		{"transport.Decode vs Server.DeliveryStats.Applied", counts["transport.Decode"], ds.Applied},
		{"durable.Admit vs Server.DeliveryStats.Applied", counts["durable.Admit"], ds.Applied},
		{"coordinator.apply.* vs coordinator.Stats", counts["coordinator.apply.new_model"] + counts["coordinator.apply.weight_update"] + counts["coordinator.apply.deletion"],
			live.UpdatesHandled + live.Deletions},
		{"coordinator.apply.deletion vs coordinator.Stats.Deletions", counts["coordinator.apply.deletion"], live.Deletions},
		{"durable.Checkpoint+1 vs dur.checkpoints", counts["durable.Checkpoint"] + 1, int(s.reg.Counter("dur.checkpoints").Value())},
	}
	for _, c := range checks {
		if c.spans != c.by {
			return gateErr("trace-reconciliation", fmt.Errorf("%s: %d spans, counter says %d", c.what, c.spans, c.by))
		}
		res.note("reconciled", fmt.Sprintf("%s: %d = %d", c.what, c.spans, c.by))
	}

	res.spans = spans
	self := buildLedger(res, spans)
	if err := siteMetrics(res, stats, t4, spans, loadTime); err != nil {
		return err
	}
	res.add("window.deletions", "count", float64(deletions))
	res.add("transport.encode_us", "us", toUs(meanDur(rs.encode)))
	res.add("transport.decode_us", "us", toUs(meanDur(rs.decode)))
	for _, k := range []string{"new_model", "weight_update", "deletion"} {
		res.add("transport.msg_bytes."+k, "B", meanI(rs.bytes[k]))
	}
	res.add("netio.send_ms_p50", "ms", pctOr0(sendMs, 5000))
	res.add("netio.send_ms_p95", "ms", pctOr0(sendMs, 9500))
	res.note("netio.send_ms", summarize(sendMs).String())
	netSelf := 0.0
	if n := counts["netio.Send"]; n > 0 {
		netSelf = toMs(self["netio"]) / float64(n)
	}
	res.add("netio.self_ms", "ms", netSelf)
	wait := 0.0
	if loadTime > 0 {
		wait = float64(sendTime) / float64(loadTime)
	}
	res.add("netio.wait_frac", "fraction", wait)
	res.add("netio.retransmit_bytes", "B", float64(retrans))
	res.add("netio.reconnects", "count", float64(reconnects))
	res.add("netio.outbox_high_water", "count", highWater)
	res.add("durable.wal_append_ms", "ms", toMs(meanDur(rs.append)))
	res.add("durable.checkpoint_ms", "ms", toMs(meanDur(rs.ckpt)))
	res.add("durable.checkpoints", "count", float64(s.reg.Counter("dur.checkpoints").Value()))
	res.add("durable.dedupe_admit_ns", "ns", float64(meanDur(rs.admit)))
	for _, k := range []string{"new_model", "weight_update", "deletion"} {
		res.add("coordinator.apply_ms."+k, "ms", toMs(meanDur(rs.apply[k])))
	}
	res.add("coordinator.updates_per_s", "1/s", float64(ds.Applied)/p.elapsed().Seconds())
	res.add("coordinator.global_mixture_ms", "ms", meanF(mixMs))
	res.add("coordinator.lock_wait_ms", "ms", meanF(lockMs))
	res.add("coordinator.groups", "count", float64(groups))
	res.add("coordinator.splits", "count", float64(live.Splits))
	res.add("coordinator.remerges", "count", float64(live.Remerges))
	queryLayer(res, s.pub, pool, p.reader, pubMs)
	zeroLayer(res, treeLayerUnits)
	if w.openLoop {
		lag := openLoopLag(s)
		res.add("load.lag_ms", "ms", pctOr0(lag, 9500))
		res.note("load.lag_ms", summarize(lag).String())
	} else {
		res.add("load.lag_ms", "ms", 0)
	}
	runtimeLayer(res, p.rt0, p.rt1, p.records)
	res.add("trace.overhead_frac", "fraction", overhead)
	res.add("trace.spans", "count", float64(len(spans)))
	for _, l := range ledgerLayers {
		res.add("self_ms."+l, "ms", toMs(self[l]))
	}
	res.attempted, res.failed = records+acked+len(p.reader.lat), 0
	return nil
}

// queryLayer adds the query tier's per-layer metrics: publish cost,
// each op through an in-process Querier on the served snapshot, and the
// HTTP share of each batch request (its latency minus the in-process
// compute for its points).
func queryLayer(res *result, pub *query.Publisher, pool [][]float64, r *reader, pubMs []float64) {
	ns := inprocNs(pub, pool, 4)
	res.add("query.publish_ms", "ms", meanF(pubMs))
	res.add("query.classify_ns", "ns", ns[query.OpClassify])
	res.add("query.density_ns", "ns", ns[query.OpDensity])
	res.add("query.topk_ns", "ns", ns[query.OpTopK])
	httpUs := make([]float64, len(r.lat))
	for i, l := range r.lat {
		httpUs[i] = l*1e3 - batchN*ns[r.ops[i]]/1e3
	}
	res.add("query.http_us", "us", meanF(httpUs))
	res.add("query.staleness_versions", "count", meanF(r.stale))
}

// runtimeLayer adds allocations per record and the GC's CPU share over
// the timed window.
func runtimeLayer(res *result, a, b rtSample, records int) {
	res.add("runtime.allocs_per_rec", "count", float64(b.mallocs-a.mallocs)/float64(max(records, 1)))
	gc := 0.0
	if b.total > a.total {
		gc = (b.gcCPU - a.gcCPU) / (b.total - a.total)
	}
	res.add("runtime.gc_cpu_frac", "fraction", gc)
}

// treeLayerUnits are the tree layer's metrics, reported as 0 on the TCP
// workloads, which have no tree.
var treeLayerUnits = map[string]string{
	"tree.feed_us": "us", "tree.drain_ms": "ms",
	"tree.layer_apply_ms.0": "ms", "tree.layer_apply_ms.1": "ms", "tree.layer_apply_ms.2": "ms",
	"tree.layer_bytes.0": "B", "tree.layer_bytes.1": "B", "tree.layer_bytes.2": "B",
	"tree.uploads": "count", "tree.root_mem_bytes": "B", "tree.max_node_mem_bytes": "B",
}
