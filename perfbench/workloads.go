package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"sync"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/linalg"
	"cludistream/internal/query"
	"cludistream/internal/site"
	"cludistream/internal/stream"
)

// Workload sizes are fixed amounts of work per run, scaled by --seconds
// with a nominal rate measured on a 2-core x86-64 machine, so that every
// commit processes the same records and the model-state metrics
// (mem_bytes, avg_nll, wire_bytes_per_krec) compare like for like.
const (
	stationaryRate = 2_500_000 // records/s across both sites
	slidingRate    = 48_000
	queryIngest    = 6_000 // the query workload's open-loop writer
	slidingHorizon = 4     // Section-7 window in chunks
)

// setupReps is how many times a run sets the system up; setup_s is the
// median, and only the last set-up is kept for the timed window.
const setupReps = 5

// tcpWorkload describes one TCP workload.
type tcpWorkload struct {
	name     string
	sites    int
	k        int
	gen      func() stream.SyntheticConfig
	horizon  int     // sliding window in chunks, 0 = landmark
	rate     float64 // nominal records/s that sizes the window
	pool     int     // records generated per site (cycled when fewer than fed)
	openLoop bool    // one open-loop writer at rate; reads run beside it
	check    func(s *tcpSys, p *tcpPass) error
}

func (w *tcpWorkload) siteCfg(i int) site.Config {
	return site.Config{
		Dim: dim, K: w.k, Epsilon: epsilon, FitEps: fitEps, Delta: delta, CMax: cMax,
		Seed: siteSeed(i), EmitFitWeightUpdates: w.horizon > 0,
	}
}

// perSite is the timed window's record count per site, whole chunks.
func (w *tcpWorkload) perSite(seconds int) int {
	n := int(w.rate*float64(seconds)) / w.sites
	return (n/chunkM + 1) * chunkM
}

var tcpWorkloads = map[string]*tcpWorkload{
	"stationary": {
		name: "stationary", sites: 2, k: 16, gen: stationaryStream,
		rate: stationaryRate, pool: 64 * chunkM, check: checkStationary,
	},
	"sliding": {
		name: "sliding", sites: 2, k: 5, gen: paperStream, horizon: slidingHorizon,
		rate: slidingRate, check: checkSliding,
	},
	"query": {
		name: "query", sites: 1, k: 5, gen: paperStream, horizon: slidingHorizon,
		rate: queryIngest, openLoop: true, check: checkQuery,
	},
}

// tcpPass is one timed window on one deployment.
type tcpPass struct {
	setups     []float64 // seconds
	start, end time.Duration
	records    int // fed in the window
	reader     *reader
	rt0, rt1   rtSample
}

func (p *tcpPass) elapsed() time.Duration { return p.end - p.start }

// rtSample is the runtime's allocation and GC CPU counters.
type rtSample struct {
	mallocs      uint64
	gcCPU, total float64
}

func readRuntime() rtSample {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}, {Name: "/cpu/classes/total:cpu-seconds"}}
	metrics.Read(s)
	return rtSample{mallocs: ms.Mallocs, gcCPU: s[0].Value.Float64(), total: s[1].Value.Float64()}
}

// genTCPInputs draws every site's stream before anything is timed.
func genTCPInputs(w *tcpWorkload, seed int64, seconds int) ([]siteInput, error) {
	n := chunkM + w.perSite(seconds) // warm-up chunk + window
	if w.pool > 0 && w.pool < n {
		n = w.pool
	}
	out := make([]siteInput, w.sites)
	for i := range out {
		in, err := genStream(w.gen(), n, seed, i)
		if err != nil {
			return nil, err
		}
		out[i] = in
	}
	return out, nil
}

// setUp builds a deployment and warms it: every site feeds its first
// chunk, fits its first model with EM and ships it, before timing.
func setUp(clk *clock, w *tcpWorkload, inputs []siteInput, dir string, rec *recorder) (*tcpSys, float64, error) {
	t0 := clk.now()
	s, err := newTCPSys(clk, w, inputs, dir, rec != nil)
	if err != nil {
		return nil, 0, err
	}
	for _, f := range s.feeders {
		f.feed(feedOpts{n: f.m, rec: rec})
		if f.st.Stats().Refits != 1 {
			s.close()
			return nil, 0, gateErr("warm-up", fmt.Errorf("site %d did not fit its first model", f.id))
		}
	}
	for _, f := range s.feeders {
		f.chunks, f.msgs, f.records, f.feedTime, f.sendTime = nil, nil, 0, 0, 0
	}
	return s, (clk.now() - t0).Seconds(), nil
}

// timedWindow runs the timed ingest: one goroutine per site, closed loop (or
// one open-loop writer), until every site's Flush returns. Reads run
// beside it when the workload asks for them.
func timedWindow(clk *clock, w *tcpWorkload, s *tcpSys, pool [][]float64, seconds int, rec *recorder) *tcpPass {
	p := &tcpPass{}
	n := w.perSite(seconds)
	var rdDone chan struct{}
	stopReads := make(chan struct{})
	if w.openLoop {
		p.reader = newReader(clk, s.qsrv.Addr().String(), pool, s.loop.coordVer.Load)
		rdDone = make(chan struct{})
	}
	p.rt0 = readRuntime()
	p.start = clk.now()
	if rdDone != nil {
		go func() {
			defer close(rdDone)
			p.reader.run(0, stopReads)
		}()
	}
	ends := make([]time.Duration, len(s.feeders))
	flushErr := make([]error, len(s.feeders))
	var wg sync.WaitGroup
	for i, f := range s.feeders {
		wg.Add(1)
		go func(i int, f *feeder) {
			defer wg.Done()
			o := feedOpts{n: n, rec: rec, start: p.start}
			if w.openLoop {
				o.rate = w.rate
			}
			f.feed(o)
			flushErr[i] = f.conn.Flush(flushTimeout)
			ends[i] = clk.now()
		}(i, f)
	}
	wg.Wait()
	for _, e := range ends {
		if e > p.end {
			p.end = e
		}
	}
	p.rt1 = readRuntime()
	if rdDone != nil {
		close(stopReads)
		<-rdDone
	}
	for _, f := range s.feeders {
		p.records += f.records
		rec.merge(f.spans)
		f.spans = nil
	}
	for i, err := range flushErr {
		if err != nil {
			s.feeders[i].sendEr++
		}
	}
	return p
}

// gateError is a failed correctness check: the run exits non-zero and
// prints no result.
type gateError struct {
	check string
	err   error
}

func (g *gateError) Error() string {
	return fmt.Sprintf("correctness check %q failed: %v", g.check, g.err)
}

func gateErr(check string, err error) error { return &gateError{check: check, err: err} }

// checkDelivery is the exactly-once gate: every message a site sent was
// acknowledged and applied once, with no duplicate, no apply error and
// nothing left queued.
func checkDelivery(s *tcpSys) (sent int, err error) {
	for _, f := range s.feeders {
		d := f.conn.Delivery()
		if d.Acked != int(f.seq) || d.Queued != 0 || d.Dropped != 0 || d.Rejected != 0 || f.sendEr != 0 || f.observeEr != 0 {
			return 0, gateErr("updates-acked-applied", fmt.Errorf(
				"site %d sent %d, acked %d, queued %d, dropped %d, rejected %d, send errors %d, observe errors %d",
				f.id, f.seq, d.Acked, d.Queued, d.Dropped, d.Rejected, f.sendEr, f.observeEr))
		}
		sent += int(f.seq)
	}
	ds := s.srv.DeliveryStats()
	if ds.Applied != sent || ds.Duplicates != 0 || ds.ApplyErrors != 0 || ds.SiteResets != 0 {
		return 0, gateErr("updates-acked-applied", fmt.Errorf(
			"sites sent %d, server applied %d, duplicates %d, apply errors %d, site resets %d",
			sent, ds.Applied, ds.Duplicates, ds.ApplyErrors, ds.SiteResets))
	}
	return sent, nil
}

// checkSnapshot is the served-state gate: after the final publish the
// served snapshot carries the coordinator's exact version and mass.
func checkSnapshot(s *tcpSys) error {
	if err := s.loop.onceLocked(); err != nil {
		return err
	}
	sn := s.pub.Current()
	var ver uint64
	var mass float64
	s.srv.Snapshot(func(c *coordinator.Coordinator) { ver, mass = c.MixtureVersion(), c.TotalWeight() })
	if sn == nil || sn.Version() != ver || sn.Mass() != mass {
		got := "none"
		if sn != nil {
			got = fmt.Sprintf("version %d mass %v", sn.Version(), sn.Mass())
		}
		return gateErr("final-snapshot", fmt.Errorf("served %s, coordinator version %d mass %v", got, ver, mass))
	}
	return nil
}

// stationaryFitShare is the share of post-warm-up chunks that must fit
// the current model. It is not 1: at K=16 the reference likelihood's
// overfit bias (about #parameters/M) uses up most of FitEps, so a site
// refits one or two chunks in 3000 even though the stream never
// changes.
const stationaryFitShare = 0.99

func checkStationary(s *tcpSys, p *tcpPass) error {
	for _, f := range s.feeders {
		st := f.st.Stats()
		after := st.Chunks - 1 // the warm-up chunk is the first model's EM
		if after < 1 || float64(st.Fits) < stationaryFitShare*float64(after) {
			return gateErr("stationary-fits-every-chunk", fmt.Errorf(
				"site %d: %d of %d chunks after warm-up fit (%d refits, %d reactivations)",
				f.id, st.Fits, after, st.Refits-1, st.Reactivated))
		}
	}
	return nil
}

// slidingBound is how many site models a bounded sliding-window
// coordinator may hold: each site's window spans horizon chunks, so at
// most horizon+1 models per site keep weight.
func slidingBound(sites int) int { return sites * (slidingHorizon + 1) }

func checkSliding(s *tcpSys, p *tcpPass) error {
	dels := 0
	for _, f := range s.feeders {
		dels += f.deletions
	}
	if dels == 0 {
		return gateErr("sliding-deletes-and-stays-bounded", fmt.Errorf("no deletion was sent"))
	}
	var models int
	s.srv.Snapshot(func(c *coordinator.Coordinator) { models = c.NumModels() })
	if models > slidingBound(len(s.feeders)) {
		return gateErr("sliding-deletes-and-stays-bounded", fmt.Errorf(
			"coordinator holds %d site models, window allows %d", models, slidingBound(len(s.feeders))))
	}
	return nil
}

func checkQuery(s *tcpSys, p *tcpPass) error {
	if err := checkSliding(s, p); err != nil {
		return err
	}
	vs := p.reader.versions
	if len(vs) < 2 || vs[len(vs)-1] <= vs[0] {
		return gateErr("query-versions-advance", fmt.Errorf("reads saw %d answers and no version advance", len(vs)))
	}
	return nil
}

// runTCP runs one TCP workload and returns its result.
func runTCP(w *tcpWorkload, cfg runConfig) (*result, error) {
	inputs, err := genTCPInputs(w, cfg.seed, cfg.seconds)
	if err != nil {
		return nil, err
	}
	pool := queryPool(inputs, cfg.seed, poolBatches, batchN)
	base := filepath.Join(cfg.stateDir, w.name)
	defer os.RemoveAll(base)
	clk := newClock()
	res := &result{workload: w.name}

	if !cfg.trace {
		sp := &speed{}
		s, p, err := tcpRun(clk, w, inputs, pool, base, cfg, setupReps, nil, sp)
		if s != nil {
			defer s.close()
		}
		if err != nil {
			return nil, err
		}
		o, err := tcpOutcome(w, s, p, inputs)
		if err != nil {
			return nil, err
		}
		o.slowdown = sp.slowdown()
		return res, endToEnd(res, o)
	}

	// Traced run: the same workload untraced, then traced, on the same
	// inputs; the difference is the tracing overhead.
	s0, p0, err := tcpRun(clk, w, inputs, pool, base, cfg, 1, nil, nil)
	var o0 *outcome
	if err == nil {
		o0, err = tcpOutcome(w, s0, p0, inputs)
	}
	if s0 != nil {
		s0.close()
	}
	if err != nil {
		return nil, err
	}
	rec := newRecorder(clk)
	s, p, err := tcpRun(clk, w, inputs, pool, base, cfg, 1, rec, nil)
	if s != nil {
		defer s.close()
	}
	if err != nil {
		return nil, err
	}
	overhead := p.elapsed().Seconds()/p0.elapsed().Seconds() - 1
	outcomeLayer(res, o0)
	if err := tcpLedger(res, w, s, p, pool, rec, overhead); err != nil {
		return nil, err
	}
	return res, nil
}

// tcpRun sets up (reps times, keeping the last), runs the timed window,
// and passes the correctness gates shared by every TCP workload.
func tcpRun(clk *clock, w *tcpWorkload, inputs []siteInput, pool [][]float64, base string, cfg runConfig, reps int, rec *recorder, sp *speed) (*tcpSys, *tcpPass, error) {
	var s *tcpSys
	var setups []float64
	sp.sample()
	for r := 0; r < reps; r++ {
		if s != nil {
			s.close()
		}
		var secs float64
		var err error
		s, secs, err = setUp(clk, w, inputs, filepath.Join(base, fmt.Sprint(r)), rec)
		if err != nil {
			return nil, nil, err
		}
		setups = append(setups, secs)
	}
	sp.sample()
	p := timedWindow(clk, w, s, pool, cfg.seconds, rec)
	p.setups = setups
	sp.sample()
	if !w.openLoop {
		// Reads against the final served model, after ingest.
		if err := s.loop.onceLocked(); err != nil {
			return s, nil, err
		}
		p.reader = newReader(clk, s.qsrv.Addr().String(), pool, s.loop.coordVer.Load)
		p.reader.run(postReads, nil)
	}
	p.reader.close()
	sp.sample()
	s.loop.halt()
	if _, err := checkDelivery(s); err != nil {
		return s, nil, err
	}
	if err := checkSnapshot(s); err != nil {
		return s, nil, err
	}
	if err := w.check(s, p); err != nil {
		return s, nil, err
	}
	bad, err := verifyAnswers(p.reader.samples, pool, s.loop.snaps.all())
	if err != nil {
		return s, nil, gateErr("query-answers-match", err)
	}
	if bad != 0 || p.reader.failed != 0 {
		return s, nil, gateErr("query-answers-match", fmt.Errorf(
			"%d of %d sampled answers differ from the in-process result, %d requests failed",
			bad, len(p.reader.samples), p.reader.failed))
	}
	if err := s.loop.err; err != nil {
		return s, nil, err
	}
	return s, p, nil
}

// tcpOutcome gathers what a TCP pass delivered.
func tcpOutcome(w *tcpWorkload, s *tcpSys, p *tcpPass, inputs []siteInput) (*outcome, error) {
	// Freshness: every message matched against the watermarks each
	// published snapshot carried.
	var msgs []msgRef
	var chunks []chunkRec
	for _, f := range s.feeders {
		off := len(msgs)
		msgs = append(msgs, f.msgs...)
		for _, c := range f.chunks {
			c2 := c
			c2.Msgs = make([]int, len(c.Msgs))
			for j, m := range c.Msgs {
				c2.Msgs[j] = m + off
			}
			chunks = append(chunks, c2)
		}
	}
	s.loop.mu.Lock()
	marks := s.loop.marks
	s.loop.mu.Unlock()
	fresh, err := freshness(chunks, matchWatermarks(marks, msgs))
	if err != nil {
		return nil, gateErr("freshness-matched", err)
	}
	sn := s.pub.Current()
	sc := query.NewScratch()
	nll, err := avgNLL(inputs, func(x linalg.Vector) float64 { return sn.LogDensity(x, sc) })
	if err != nil {
		return nil, err
	}
	o := &outcome{setups: p.setups, records: p.records, elapsed: p.elapsed(), fresh: fresh, nll: nll, rd: p.reader, lag: openLoopLag(s), openLoop: w.openLoop}
	var goodput, allRecords int
	for _, f := range s.feeders {
		st := f.st.Stats()
		goodput += f.conn.Delivery().GoodputBytes
		allRecords += st.Records
		o.mem += f.st.ModelListBytes() + f.st.BufferBytes()
		o.attempted += st.Records + int(f.seq)
		o.failed += f.observeEr + f.sendEr
	}
	s.srv.Snapshot(func(c *coordinator.Coordinator) { o.mem += c.MemoryBytes() })
	o.attempted += len(p.reader.lat)
	o.failed += s.srv.DeliveryStats().ApplyErrors + p.reader.failed
	o.wire = float64(goodput) / float64(allRecords) * 1000
	return o, nil
}

// openLoopLag is the open-loop writer's lateness per record, in ms.
func openLoopLag(s *tcpSys) []float64 {
	var lag []float64
	for _, f := range s.feeders {
		lag = append(lag, lateness(f.due, f.act)...)
	}
	return lag
}
