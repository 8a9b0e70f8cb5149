package main

import (
	"fmt"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/linalg"
	"cludistream/internal/query"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
	"cludistream/internal/tree"
)

// The tree workload: landmark ingest through an in-process
// tree.Deployment on the virtual clock — real sites at the leaves, real
// coordinators with aggd's tolerance-based upload-on-change at every
// interior node, netsim couriers on every edge — with two aggregator
// layers and production (simplex) merge.

// treeSeed is the deployment's own seed (leaf EM seeds and courier
// jitter): program configuration, fixed across workload seeds.
const treeSeed = 1

const (
	treeLeaves    = 16
	treeAggLayers = 2
	treeFanOut    = 4
	treeRate      = 15_000 // nominal records/s across all leaves
	treeLatency   = 0.01   // per-edge virtual latency, seconds
)

func treeTopology() (tree.Topology, error) {
	return tree.Spec{
		Leaves: treeLeaves, AggLayers: treeAggLayers, FanOut: treeFanOut,
		Link: tree.LinkSpec{Latency: treeLatency},
	}.Build()
}

// treePerLeaf is the timed window's records per leaf, whole chunks.
func treePerLeaf(seconds int) int {
	n := treeRate * seconds / treeLeaves
	return (n/chunkM + 1) * chunkM
}

func treeSiteCfg() site.Config {
	return site.Config{Dim: dim, K: 5, Epsilon: epsilon, FitEps: fitEps, Delta: delta, CMax: cMax}
}

// treeFrame is one message applied at an interior node, with the span
// (the Feed or Drain call) during which it was applied.
type treeFrame struct {
	node   int
	msg    transport.Message
	parent uint64
}

// treeSys is one live deployment plus what the benchmark tracks about it.
type treeSys struct {
	clk  *clock
	topo tree.Topology
	d    *tree.Deployment
	reg  *telemetry.Registry
	rec  *recorder

	// Exactly-once accounting per edge: applied messages and bytes.
	applied map[[3]int][2]int // (node, sender, epoch) → {msgs, bytes}

	// Freshness: a message's token becomes visible at the root either
	// when the root applies it, or when an aggregator applies it and its
	// upload-on-change rule decides the change is within tolerance.
	vis      []time.Duration
	leafTok  map[[2]int]int   // (leaf SiteID, seq) → token
	upTok    map[[2]int][]int // (aggregator pseudo-ID, seq) → tokens carried
	pending  []int            // tokens applied at lastNode, awaiting its sync decision
	lastNode int
	lastSent int
	chunks   []chunkRec

	// Traced runs: every applied frame, and the open Feed/Drain span.
	frames []treeFrame
	cur    uint64
	spans  []span
	feedOf [][]uint64 // per leaf, per record: the span its Feed belongs to
	quiet  []int      // per leaf: index in spans of its open quiet-Feed aggregate, -1 if none
}

func (t *treeSys) parentOf(n int) int { return t.topo.Aggs[n-1].Parent }

func (t *treeSys) uplinkSent(n int) int {
	pid := t.d.NodePseudoID(n)
	p := t.parentOf(n)
	return t.d.SentTally(p, pid, t.d.SenderEpoch(p, pid)).Msgs
}

// settle resolves the previous apply's sync decision: uploads sent since
// carry its tokens upward; no upload means the root is already
// consistent with it within tolerance.
func (t *treeSys) settle() {
	if t.lastNode < 0 {
		return
	}
	n := t.lastNode
	t.lastNode = -1
	if sent := t.uplinkSent(n); sent > t.lastSent {
		key := [2]int{t.d.NodePseudoID(n), sent}
		t.upTok[key] = append(t.upTok[key], t.pending...)
	} else {
		now := t.clk.now()
		for _, tok := range t.pending {
			t.vis[tok] = now
		}
	}
	t.pending = nil
}

func (t *treeSys) onApply(node int, msg transport.Message) {
	t.settle()
	key := [3]int{node, int(msg.SiteID), int(msg.Epoch)}
	a := t.applied[key]
	t.applied[key] = [2]int{a[0] + 1, a[1] + msg.WireSize()}
	if t.rec != nil {
		if t.cur == 0 {
			t.cur = t.rec.id()
		}
		t.frames = append(t.frames, treeFrame{node: node, msg: msg, parent: t.cur})
	}
	var carried []int
	if int(msg.SiteID) <= treeLeaves {
		if tok, ok := t.leafTok[[2]int{int(msg.SiteID), int(msg.Seq)}]; ok {
			carried = []int{tok}
		}
	} else {
		k := [2]int{int(msg.SiteID), int(msg.Seq)}
		carried = t.upTok[k]
		delete(t.upTok, k)
	}
	if node == 0 {
		now := t.clk.now()
		for _, tok := range carried {
			t.vis[tok] = now
		}
		return
	}
	t.pending = append(t.pending, carried...)
	t.lastNode = node
	t.lastSent = t.uplinkSent(node)
}

func newTreeSys(clk *clock, rec *recorder) (*treeSys, error) {
	topo, err := treeTopology()
	if err != nil {
		return nil, err
	}
	t := &treeSys{
		clk: clk, topo: topo, reg: telemetry.NewRegistry(), rec: rec,
		applied: map[[3]int][2]int{}, leafTok: map[[2]int]int{}, upTok: map[[2]int][]int{},
		lastNode: -1, feedOf: make([][]uint64, treeLeaves), quiet: make([]int, treeLeaves),
	}
	for i := range t.quiet {
		t.quiet[i] = -1
	}
	sc := treeSiteCfg()
	sc.Telemetry = t.reg
	t.d, err = tree.NewDeployment(tree.Config{
		Topology: topo, Site: sc,
		Coord: coordinator.Config{Dim: dim, Telemetry: t.reg},
		Seed:  treeSeed, Telemetry: t.reg, OnApply: t.onApply,
	})
	return t, err
}

// feed hands record x to leaf i and tracks what it produced.
func (t *treeSys) feed(i int, x linalg.Vector) error {
	st := t.d.LeafSite(i)
	closing := st.Pending() == st.ChunkSize()-1
	leafID := i + 1
	parent := t.topo.Leaves[i].Parent
	var before int
	var created time.Duration
	if closing || t.rec != nil {
		created = t.clk.now()
	}
	if closing {
		before = t.d.SentTally(parent, leafID, 1).Msgs
	}
	err := t.d.Feed(i, x)
	end := t.clk.now()
	t.settle()
	if closing {
		c := chunkRec{Site: i, Created: created, Decided: end}
		for seq := before + 1; seq <= t.d.SentTally(parent, leafID, 1).Msgs; seq++ {
			t.leafTok[[2]int{leafID, seq}] = len(t.vis)
			c.Msgs = append(c.Msgs, len(t.vis))
			t.vis = append(t.vis, never)
		}
		t.chunks = append(t.chunks, c)
	}
	if t.rec != nil {
		if closing || t.cur != 0 {
			if t.cur == 0 {
				t.cur = t.rec.id()
			}
			t.spans = append(t.spans, span{ID: t.cur, Name: "tree.Feed", Start: created, End: end, N: 1})
			t.feedOf[i] = append(t.feedOf[i], t.cur)
			t.cur = 0
			if closing {
				t.quiet[i] = -1
			}
		} else {
			t.quietFeed(i, end-created)
		}
	}
	return err
}

// quietFeed folds a Feed that closed no chunk and applied nothing into
// one aggregate span per leaf chunk: a span per record would not fit in
// memory on long runs.
func (t *treeSys) quietFeed(i int, d time.Duration) {
	j := t.quiet[i]
	if j < 0 {
		j = len(t.spans)
		t.spans = append(t.spans, t.rec.agg("tree.Feed", 0, 0, 0, 0))
		t.quiet[i] = j
	}
	t.spans[j].Dur += d
	t.spans[j].N++
	t.feedOf[i] = append(t.feedOf[i], t.spans[j].ID)
}

// drain runs Deployment.Drain and settles the last apply.
func (t *treeSys) drain() (time.Duration, error) {
	t0 := t.clk.now()
	if t.rec != nil {
		t.cur = t.rec.id()
	}
	err := t.d.Drain()
	t.settle()
	t1 := t.clk.now()
	if t.rec != nil {
		t.spans = append(t.spans, span{ID: t.cur, Name: "tree.Drain", Start: t0, End: t1, N: 1})
		t.cur = 0
	}
	return t1 - t0, err
}

// treePass is one timed run of the tree workload.
type treePass struct {
	sys        *treeSys
	setups     []float64
	start, end time.Duration
	drain      time.Duration
	records    int
	rt0, rt1   rtSample
}

func treeRun(clk *clock, inputs []siteInput, cfg runConfig, reps int, rec *recorder, sp *speed) (*treePass, error) {
	p := &treePass{}
	var t *treeSys
	sp.sample()
	for r := 0; r < reps; r++ {
		if t != nil {
			t.d.Close()
		}
		t0 := clk.now()
		var err error
		if t, err = newTreeSys(clk, rec); err != nil {
			return nil, err
		}
		// Warm-up: every leaf fits its first model.
		for k := 0; k < chunkM; k++ {
			for i := 0; i < treeLeaves; i++ {
				if err := t.feed(i, inputs[i].recs[k]); err != nil {
					return nil, err
				}
			}
		}
		for i := 0; i < treeLeaves; i++ {
			if t.d.LeafSite(i).Stats().Refits != 1 {
				return nil, gateErr("warm-up", fmt.Errorf("leaf %d did not fit its first model", i+1))
			}
		}
		p.setups = append(p.setups, (clk.now() - t0).Seconds())
		t.chunks = nil // freshness counts the timed window only
	}
	p.sys = t
	sp.sample()
	n := treePerLeaf(cfg.seconds)
	p.rt0 = readRuntime()
	p.start = clk.now()
	for k := chunkM; k < chunkM+n; k++ {
		for i := 0; i < treeLeaves; i++ {
			if err := t.feed(i, inputs[i].recs[k]); err != nil {
				return nil, err
			}
		}
	}
	var err error
	if p.drain, err = t.drain(); err != nil {
		return nil, err
	}
	p.end = clk.now()
	p.rt1 = readRuntime()
	sp.sample()
	p.records = n * treeLeaves
	if err := checkTree(t); err != nil {
		return nil, err
	}
	return p, nil
}

// checkTree is the tree's exactly-once gate: nothing in flight after
// Drain, and every edge's sender-side tally equals what its receiver
// applied, in messages and bytes.
func checkTree(t *treeSys) error {
	if n := t.d.Pending(); n != 0 {
		return gateErr("tree-drained", fmt.Errorf("%d frames still queued after Drain", n))
	}
	for _, e := range t.d.EdgeStatsAll() {
		a := t.applied[[3]int{e.To, e.From, int(e.Epoch)}]
		if a[0] != e.SentMsgs || a[1] != e.SentBytes {
			return gateErr("tree-edges-balance", fmt.Errorf("edge %d→%d sent %d msgs/%d B, applied %d/%d",
				e.From, e.To, e.SentMsgs, e.SentBytes, a[0], a[1]))
		}
	}
	return nil
}

// serveRoot publishes the root mixture into a query tier and runs the
// post-ingest read phase against it.
func serveRoot(clk *clock, t *treeSys, pool [][]float64) (*query.Publisher, *reader, time.Duration, error) {
	root := t.d.NodeCoordinator(0)
	pub := query.NewPublisher(query.Options{Telemetry: t.reg})
	t0 := time.Now()
	sn, err := pub.Publish(root.GlobalMixture(), root.MixtureVersion(), root.TotalWeight())
	pubDur := time.Since(t0)
	if err != nil {
		return nil, nil, 0, err
	}
	if sn.Version() != root.MixtureVersion() || sn.Mass() != root.TotalWeight() {
		return nil, nil, 0, gateErr("final-snapshot", fmt.Errorf("served version %d mass %v, root %d %v",
			sn.Version(), sn.Mass(), root.MixtureVersion(), root.TotalWeight()))
	}
	qsrv, err := query.Serve("127.0.0.1:0", pub)
	if err != nil {
		return nil, nil, 0, err
	}
	defer qsrv.Close()
	rd := newReader(clk, qsrv.Addr().String(), pool, root.MixtureVersion)
	rd.run(postReads, nil)
	rd.close()
	var snaps snapStore
	snaps.put(sn)
	bad, err := verifyAnswers(rd.samples, pool, snaps.all())
	if err != nil {
		return nil, nil, 0, gateErr("query-answers-match", err)
	}
	if bad != 0 || rd.failed != 0 {
		return nil, nil, 0, gateErr("query-answers-match", fmt.Errorf(
			"%d of %d sampled answers differ, %d requests failed", bad, len(rd.samples), rd.failed))
	}
	return pub, rd, pubDur, nil
}

func runTree(cfg runConfig) (*result, error) {
	n := chunkM + treePerLeaf(cfg.seconds)
	inputs := make([]siteInput, treeLeaves)
	for i := range inputs {
		in, err := genStream(paperStream(), n, cfg.seed, i)
		if err != nil {
			return nil, err
		}
		inputs[i] = in
	}
	pool := queryPool(inputs, cfg.seed, poolBatches, batchN)
	clk := newClock()
	res := &result{workload: "tree"}
	if !cfg.trace {
		sp := &speed{}
		p, err := treeRun(clk, inputs, cfg, setupReps, nil, sp)
		if err != nil {
			return nil, err
		}
		defer p.sys.d.Close()
		pub, rd, _, err := serveRoot(clk, p.sys, pool)
		if err != nil {
			return nil, err
		}
		sp.sample()
		o, err := treeOutcome(p, inputs, rd, pub)
		if err != nil {
			return nil, err
		}
		o.slowdown = sp.slowdown()
		res.note("tree", fmt.Sprintf("%d leaves, %d interior nodes, depth %d, drain %.1f ms",
			treeLeaves, p.sys.d.NumNodes(), p.sys.topo.Depth(), toMs(p.drain)))
		return res, endToEnd(res, o)
	}
	p0, err := treeRun(clk, inputs, cfg, 1, nil, nil)
	if err != nil {
		return nil, err
	}
	o0, err := treeOutcome(p0, inputs, nil, nil)
	p0.sys.d.Close()
	if err != nil {
		return nil, err
	}
	outcomeLayer(res, o0)
	rec := newRecorder(clk)
	p, err := treeRun(clk, inputs, cfg, 1, rec, nil)
	if err != nil {
		return nil, err
	}
	defer p.sys.d.Close()
	overhead := (p.end-p.start).Seconds()/(p0.end-p0.start).Seconds() - 1
	return res, treeLedger(res, clk, p, inputs, pool, rec, overhead, cfg)
}

func treeMem(t *treeSys) (total, root, maxNode int) {
	for i := 0; i < treeLeaves; i++ {
		st := t.d.LeafSite(i)
		total += st.ModelListBytes() + st.BufferBytes()
	}
	for n := 0; n < t.d.NumNodes(); n++ {
		m := t.d.NodeCoordinator(n).MemoryBytes()
		total += m
		if m > maxNode {
			maxNode = m
		}
	}
	return total, t.d.NodeCoordinator(0).MemoryBytes(), maxNode
}

// treeOutcome gathers what a tree pass delivered; rd is the read phase
// against the root, nil when the pass made none.
func treeOutcome(p *treePass, inputs []siteInput, rd *reader, pub *query.Publisher) (*outcome, error) {
	t := p.sys
	fresh, err := freshness(t.chunks, t.vis)
	if err != nil {
		return nil, gateErr("freshness-matched", err)
	}
	o := &outcome{setups: p.setups, records: p.records, elapsed: p.end - p.start, fresh: fresh, rd: rd}
	if pub != nil {
		sn := pub.Current()
		sc := query.NewScratch()
		if o.nll, err = avgNLL(inputs, func(x linalg.Vector) float64 { return sn.LogDensity(x, sc) }); err != nil {
			return nil, err
		}
	}
	o.mem, _, _ = treeMem(t)
	allRecords := 0
	for i := 0; i < treeLeaves; i++ {
		allRecords += t.d.LeafSite(i).Stats().Records
	}
	o.attempted = allRecords
	if rd != nil {
		o.attempted += len(rd.lat)
		o.failed = rd.failed
	}
	o.wire = float64(t.d.TotalBytes()) / float64(allRecords) * 1000
	return o, nil
}

// treeLedger replays the leaves' records through fresh sites and every
// node's applied frames through fresh coordinators, hangs the replayed
// durations under the Feed or Drain call where they ran, and reduces the
// spans to the per-layer metrics.
func treeLedger(res *result, clk *clock, p *treePass, inputs []siteInput, pool [][]float64, rec *recorder, overhead float64, cfg runConfig) error {
	t := p.sys
	var spans []span
	spans = append(spans, t.spans...)
	graft := func(parent uint64, name string, n int, d time.Duration) {
		spans = append(spans, span{ID: rec.id(), Parent: parent, Name: name, Dur: d, N: n, Agg: true})
	}

	// Leaf sites: same config and seed derivation as the deployment.
	var stats []site.Stats
	var t4 []t4sample
	for i := 0; i < treeLeaves; i++ {
		sc := treeSiteCfg()
		sc.SiteID, sc.Seed, sc.Telemetry = i+1, treeSeed+int64(i+1)*7919, telemetry.NewRegistry()
		st, err := site.New(sc)
		if err != nil {
			return err
		}
		fed := t.d.LeafSite(i).Stats().Records
		if fed != len(t.feedOf[i]) {
			return gateErr("trace-reconciliation", fmt.Errorf("leaf %d: %d Feed spans, site counted %d records", i+1, len(t.feedOf[i]), fed))
		}
		type acc struct {
			d time.Duration
			n int
		}
		byParent := map[uint64]*acc{}
		var order []uint64
		for r := 0; r < fed; r++ {
			closing := st.Pending() == st.ChunkSize()-1
			var before site.Stats
			if closing {
				before = st.Stats()
			}
			t0 := time.Now()
			_, err := st.Observe(inputs[i].recs[r])
			d := time.Since(t0)
			if err != nil {
				return err
			}
			if closing {
				after := st.Stats()
				refit := after.Refits > before.Refits
				name := "site.Observe.fit"
				if refit {
					name = "site.Observe.refit"
				}
				graft(t.feedOf[i][r], name, 1, d)
				t4 = append(t4, t4sample{cost: d, tests: after.Tests - before.Tests, refit: refit})
				continue
			}
			pid := t.feedOf[i][r]
			a := byParent[pid]
			if a == nil {
				a = &acc{}
				byParent[pid] = a
				order = append(order, pid)
			}
			a.d += d
			a.n++
		}
		for _, pid := range order {
			graft(pid, "site.Observe", byParent[pid].n, byParent[pid].d)
		}
		if got, want := st.Stats(), t.d.LeafSite(i).Stats(); got != want {
			return gateErr("replay-fidelity", fmt.Errorf("leaf %d replay stats %+v, live %+v", i+1, got, want))
		}
		stats = append(stats, st.Stats())
	}

	// Interior nodes: decode, dedupe and apply each frame in apply order.
	nodes := t.d.NumNodes()
	coords := make([]*coordinator.Coordinator, nodes)
	deds := make([]*durable.Dedupe, nodes)
	for n := range coords {
		c, err := coordinator.New(coordinator.Config{Dim: dim, Telemetry: telemetry.NewRegistry()})
		if err != nil {
			return err
		}
		coords[n], deds[n] = c, durable.NewDedupe()
	}
	var decode, encode, admit, mix []time.Duration
	apply := map[string][]time.Duration{}
	byDepth := map[int][]time.Duration{}
	sizes := map[string][]int{}
	uploads := 0
	for _, f := range t.frames {
		t0 := time.Now()
		payload := transport.Encode(f.msg)
		t1 := time.Now()
		_, err := transport.Decode(payload)
		t2 := time.Now()
		if err != nil {
			return err
		}
		// Apply the message exactly as the node decoded it live: decoding
		// renormalizes mixture weights, so a second encode/decode round
		// trip would move the last bits of the merged weights.
		msg := f.msg
		v := deds[f.node].Admit(msg.SiteID, msg.Epoch, msg.Seq)
		t3 := time.Now()
		if v != durable.AdmitFresh {
			return gateErr("replay-fidelity", fmt.Errorf("node %d frame (%d, %d) not fresh on replay", f.node, msg.SiteID, msg.Seq))
		}
		kind := kindName(msg.Kind)
		if msg.Kind == transport.MsgDeletion {
			err = coords[f.node].HandleDeletion(int(msg.SiteID), int(msg.ModelID), int(msg.Count))
		} else {
			err = coords[f.node].HandleUpdate(msg.ToSiteUpdate())
		}
		t4t := time.Now()
		if err != nil {
			return gateErr("replay-fidelity", err)
		}
		// Every interior node but the root runs its upload-on-change
		// check on the merged mixture after each apply.
		var gm time.Duration
		if f.node != 0 {
			coords[f.node].GlobalMixture()
			gm = time.Since(t4t)
			mix = append(mix, gm)
			graft(f.parent, "coordinator.GlobalMixture", 1, gm)
		}
		encode = append(encode, t1.Sub(t0))
		decode = append(decode, t2.Sub(t1))
		admit = append(admit, t3.Sub(t2))
		apply[kind] = append(apply[kind], t4t.Sub(t3))
		byDepth[t.topo.NodeDepth(f.node)] = append(byDepth[t.topo.NodeDepth(f.node)], t4t.Sub(t3))
		sizes[kind] = append(sizes[kind], len(payload))
		if int(msg.SiteID) > treeLeaves {
			uploads++
		}
		graft(f.parent, "transport.Encode", 1, t1.Sub(t0))
		graft(f.parent, "transport.Decode", 1, t2.Sub(t1))
		graft(f.parent, "durable.Admit", 1, t3.Sub(t2))
		graft(f.parent, "coordinator.apply."+kind, 1, t4t.Sub(t3))
	}
	var live coordinator.Stats
	var groups int
	for n := 0; n < nodes; n++ {
		lc := t.d.NodeCoordinator(n)
		if coords[n].MixtureVersion() != lc.MixtureVersion() || coords[n].TotalWeight() != lc.TotalWeight() {
			return gateErr("replay-fidelity", fmt.Errorf("node %d replay version %d weight %v, live %d %v",
				n, coords[n].MixtureVersion(), coords[n].TotalWeight(), lc.MixtureVersion(), lc.TotalWeight()))
		}
		s := lc.Stats()
		live.UpdatesHandled += s.UpdatesHandled
		live.Deletions += s.Deletions
		live.Splits += s.Splits
		live.Remerges += s.Remerges
	}
	groups = len(t.d.NodeCoordinator(0).Groups())

	pub, rd, pubDur, err := serveRoot(clk, t, pool)
	if err != nil {
		return err
	}
	spans = append(spans, span{ID: rec.id(), Name: "query.batch", Dur: time.Duration(sumF(rd.lat) * float64(time.Millisecond)), N: len(rd.lat), Agg: true})

	counts := spanCounts(spans)
	records := 0
	for _, s := range stats {
		records += s.Records
	}
	checks := []struct {
		what      string
		spans, by int
	}{
		{"tree.Feed vs site.Stats.Records", counts["tree.Feed"], records},
		{"site.Observe* vs site.Stats.Records", counts["site.Observe"] + counts["site.Observe.fit"] + counts["site.Observe.refit"], records},
		{"coordinator.apply.* vs coordinator.Stats", counts["coordinator.apply.new_model"] + counts["coordinator.apply.weight_update"] + counts["coordinator.apply.deletion"],
			live.UpdatesHandled + live.Deletions},
		{"transport.Decode vs EdgeStatsAll.SentMsgs", counts["transport.Decode"], sumSent(t.d.EdgeStatsAll())},
	}
	for _, c := range checks {
		if c.spans != c.by {
			return gateErr("trace-reconciliation", fmt.Errorf("%s: %d spans, counter says %d", c.what, c.spans, c.by))
		}
		res.note("reconciled", fmt.Sprintf("%s: %d = %d", c.what, c.spans, c.by))
	}

	var feedTime time.Duration
	var feedN int
	for i := range t.spans {
		if t.spans[i].Name == "tree.Feed" {
			feedTime += t.spans[i].dur()
			feedN += t.spans[i].N
		}
	}
	res.spans = spans
	self := buildLedger(res, spans)
	if err := siteMetrics(res, stats, t4, spans, feedTime+p.drain); err != nil {
		return err
	}
	res.add("window.deletions", "count", 0)
	res.add("transport.encode_us", "us", toUs(meanDur(encode)))
	res.add("transport.decode_us", "us", toUs(meanDur(decode)))
	for _, k := range []string{"new_model", "weight_update", "deletion"} {
		res.add("transport.msg_bytes."+k, "B", meanI(sizes[k]))
	}
	zeroLayer(res, netioLayerUnits)
	res.add("durable.wal_append_ms", "ms", 0)
	res.add("durable.checkpoint_ms", "ms", 0)
	res.add("durable.checkpoints", "count", 0)
	res.add("durable.dedupe_admit_ns", "ns", float64(meanDur(admit)))
	for _, k := range []string{"new_model", "weight_update", "deletion"} {
		res.add("coordinator.apply_ms."+k, "ms", toMs(meanDur(apply[k])))
	}
	res.add("coordinator.updates_per_s", "1/s", float64(len(t.frames))/(p.end-p.start).Seconds())
	res.add("coordinator.global_mixture_ms", "ms", toMs(meanDur(mix)))
	res.add("coordinator.lock_wait_ms", "ms", 0)
	res.add("coordinator.groups", "count", float64(groups))
	res.add("coordinator.splits", "count", float64(live.Splits))
	res.add("coordinator.remerges", "count", float64(live.Remerges))
	queryLayer(res, pub, pool, rd, []float64{toMs(pubDur)})
	_, rootMem, maxMem := treeMem(t)
	lb := t.d.LayerBytes()
	res.add("tree.feed_us", "us", toUs(feedTime)/float64(max(feedN, 1)))
	res.add("tree.drain_ms", "ms", toMs(p.drain))
	for d := 0; d <= treeAggLayers; d++ {
		res.add(fmt.Sprintf("tree.layer_apply_ms.%d", d), "ms", toMs(meanDur(byDepth[d])))
		res.add(fmt.Sprintf("tree.layer_bytes.%d", d), "B", float64(lb[d]))
	}
	res.add("tree.uploads", "count", float64(uploads))
	res.add("tree.root_mem_bytes", "B", float64(rootMem))
	res.add("tree.max_node_mem_bytes", "B", float64(maxMem))
	res.add("load.lag_ms", "ms", 0)
	runtimeLayer(res, p.rt0, p.rt1, p.records)
	res.add("trace.overhead_frac", "fraction", overhead)
	res.add("trace.spans", "count", float64(len(spans)))
	for _, l := range ledgerLayers {
		res.add("self_ms."+l, "ms", toMs(self[l]))
	}
	res.attempted, res.failed = records+len(rd.lat), 0
	return nil
}

func sumF(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func sumSent(es []tree.EdgeStats) int {
	n := 0
	for _, e := range es {
		n += e.SentMsgs
	}
	return n
}

// netioLayerUnits are the netio metrics, reported as 0 on the tree,
// whose edges are netsim couriers rather than TCP connections.
var netioLayerUnits = map[string]string{
	"netio.send_ms_p50": "ms", "netio.send_ms_p95": "ms", "netio.self_ms": "ms", "netio.wait_frac": "fraction",
	"netio.retransmit_bytes": "B", "netio.reconnects": "count", "netio.outbox_high_water": "count",
}
