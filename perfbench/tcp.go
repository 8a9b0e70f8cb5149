package main

import (
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/netio"
	"cludistream/internal/persist"
	"cludistream/internal/query"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
	"cludistream/internal/window"
)

// The TCP deployment: site processors feeding netio connections over
// loopback into a netio.Server with a durable store (fsync=always WAL
// with checkpoints), a coordd-style publish loop and the HTTP query tier.
// The benchmark drives each layer through its public functions.

// checkpointEvery is coordd's default -checkpoint-every.
const checkpointEvery = 256

// publishEvery is the benchmark's publish-loop cadence: short enough
// that the ticker is not the main term in freshness.
const publishEvery = 2 * time.Millisecond

// flushTimeout bounds each site's final outbox drain.
const flushTimeout = 60 * time.Second

// tcpSys is one live deployment.
type tcpSys struct {
	clk     *clock
	dir     string
	reg     *telemetry.Registry
	store   *durable.Store
	ded     *durable.Dedupe
	srv     *netio.Server
	pub     *query.Publisher
	qsrv    *query.Server
	loop    *pubLoop
	feeders []*feeder
}

// feeder is one site: its processor, its connection, its sliding-window
// tracker and everything the benchmark learns while feeding it. One
// goroutine owns it.
type feeder struct {
	clk  *clock
	idx  int // site index; SiteID is idx+1
	id   int
	m    int
	st   *site.Site
	conn *netio.Conn
	tr   *window.Tracker
	reg  *telemetry.Registry
	recs []linalg.Vector
	pos  int

	seq uint64 // messages sent; Conn.Send stamps seq 1, 2, ...
	// outstanding is, per model, the record count the coordinator holds
	// for it: what updates added minus what deletions took away.
	outstanding map[int]int
	records     int // records fed
	observeEr   int
	sendEr      int
	deletions   int
	msgs        []msgRef
	chunks      []chunkRec
	sendTime    time.Duration // total time inside Conn.Send
	feedTime    time.Duration // total time of the timed feed
	due, act    []time.Duration

	// traced runs only
	spans    []span
	sendSpan map[uint64]uint64 // seq → its Conn.Send span
	sendMs   []float64
	t4       []t4sample
}

// t4sample is one closed chunk's cost: the Observe call that closed it.
type t4sample struct {
	cost  time.Duration
	tests int
	refit bool
}

// pubLoop is coordd's publish loop: on a fixed cadence it captures the
// mixture, version and mass under Server.Snapshot and republishes only
// changed versions. It also reads each site's dedupe watermark at
// capture, which is what freshness is matched against, and, in traced
// runs, keeps a descriptor on every WAL generation so the applied frames
// can be replayed after the run.
type pubLoop struct {
	sys      *tcpSys
	nsites   int
	stop     chan struct{}
	done     chan struct{}
	coordVer atomic.Uint64

	mu      sync.Mutex // guards everything below
	lastVer uint64
	marks   []pubMark
	snaps   snapStore
	lockMs  []float64
	mixMs   []float64
	pubMs   []float64
	capture bool
	walGen  uint64
	walErr  error
	walFds  []*os.File
	err     error
}

func newTCPSys(clk *clock, w *tcpWorkload, inputs []siteInput, dir string, capture bool) (*tcpSys, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	s := &tcpSys{clk: clk, dir: dir, reg: telemetry.NewRegistry()}
	coordCfg := coordinator.Config{Dim: dim, Telemetry: s.reg}
	store, rec, err := durable.Open(dir, coordCfg, durable.Options{
		CheckpointEvery: checkpointEvery, Fsync: persist.FsyncAlways, Telemetry: s.reg,
	})
	if err != nil {
		return nil, err
	}
	s.store, s.ded = store, rec.Dedupe
	s.srv, err = netio.NewServerOpts("127.0.0.1:0", rec.Coord, netio.ServerOptions{
		Telemetry: s.reg, Store: store, Dedupe: rec.Dedupe,
	})
	if err != nil {
		store.Close()
		return nil, err
	}
	s.pub = query.NewPublisher(query.Options{Telemetry: s.reg})
	if s.qsrv, err = query.Serve("127.0.0.1:0", s.pub); err != nil {
		s.close()
		return nil, err
	}
	s.loop = &pubLoop{sys: s, nsites: w.sites, stop: make(chan struct{}), done: make(chan struct{}), capture: capture}
	if capture {
		if err := s.loop.onceLocked(); err != nil {
			s.close()
			return nil, err
		}
	}
	go s.loop.run()
	for i := 0; i < w.sites; i++ {
		f, err := newFeeder(clk, s, w, i, inputs[i].recs)
		if err != nil {
			s.close()
			return nil, err
		}
		s.feeders = append(s.feeders, f)
	}
	return s, nil
}

func newFeeder(clk *clock, s *tcpSys, w *tcpWorkload, i int, recs []linalg.Vector) (*feeder, error) {
	reg := telemetry.NewRegistry()
	cfg := w.siteCfg(i)
	cfg.SiteID, cfg.Telemetry = i+1, reg
	st, err := site.New(cfg)
	if err != nil {
		return nil, err
	}
	conn, err := netio.DialConnRetry(s.srv.Addr().String(), netio.RetryPolicy{
		Epoch: 1, SiteID: int32(i + 1), Telemetry: reg,
	})
	if err != nil {
		return nil, err
	}
	f := &feeder{clk: clk, idx: i, id: i + 1, m: st.ChunkSize(), st: st, conn: conn, reg: reg, recs: recs, outstanding: map[int]int{}}
	if w.horizon > 0 {
		if f.tr, err = window.NewTracker(st, w.horizon); err != nil {
			conn.Close()
			return nil, err
		}
	}
	return f, nil
}

// close tears the deployment down and removes its state directory.
func (s *tcpSys) close() {
	if s.loop != nil {
		s.loop.halt()
		s.loop.closeFds()
	}
	for _, f := range s.feeders {
		f.conn.Close()
	}
	if s.qsrv != nil {
		s.qsrv.Close()
	}
	if s.srv != nil {
		s.srv.Close()
	} else if s.store != nil {
		s.store.Close()
	}
	os.RemoveAll(s.dir)
}

// feedOpts selects how a feed runs.
type feedOpts struct {
	n     int
	rec   *recorder // nil: untraced
	rate  float64   // > 0: open loop at this many records/s from start
	start time.Duration
}

// feed pushes n records through the site and ships what it produces,
// exactly as netio.Client.Observe does: the chunk's updates first, then
// the sliding window's deletions, each through Conn.Send, which returns
// once the coordinator acknowledged (or refused) it.
func (f *feeder) feed(o feedOpts) {
	traced := o.rec != nil
	var chunkSpan uint64
	var chunkStart, aggDur time.Duration
	var aggN int
	begin := f.clk.now()
	for k := 0; k < o.n; k++ {
		x := f.recs[f.pos]
		if f.pos++; f.pos == len(f.recs) {
			f.pos = 0
		}
		closing := f.st.Pending() == f.m-1
		var created time.Duration
		if o.rate > 0 {
			due := dueAt(o.start, k, o.rate)
			now := f.clk.now()
			if now < due {
				time.Sleep(due - now)
				now = f.clk.now()
			}
			f.due = append(f.due, due)
			f.act = append(f.act, now)
			created = due
			if traced && chunkSpan == 0 {
				chunkStart = now
			}
		} else if closing || traced {
			created = f.clk.now()
			if traced && chunkSpan == 0 {
				chunkStart = created
			}
		}
		if traced && chunkSpan == 0 {
			chunkSpan = o.rec.id()
		}
		var before site.Stats
		if traced && closing {
			before = f.st.Stats()
		}
		obsStart := created
		if o.rate > 0 && (closing || traced) {
			obsStart = f.clk.now()
		}
		ups, err := f.st.Observe(x)
		var obsEnd time.Duration
		if closing || traced {
			obsEnd = f.clk.now()
		}
		f.records++
		if err != nil {
			f.observeEr++
		}
		if !closing {
			if traced {
				aggDur += obsEnd - obsStart
				aggN++
			}
			continue
		}
		chunk := chunkRec{Site: f.idx, Created: created}
		if traced {
			after := f.st.Stats()
			refit := after.Refits > before.Refits
			name := "site.Observe.fit"
			if refit {
				name = "site.Observe.refit"
			}
			f.spans = append(f.spans, o.rec.real(name, chunkSpan, chunkSpan, obsStart, obsEnd))
			f.t4 = append(f.t4, t4sample{cost: obsEnd - obsStart, tests: after.Tests - before.Tests, refit: refit})
		}
		for _, u := range ups {
			f.send(transport.FromSiteUpdate(f.upgrade(u)), &chunk, o.rec, chunkSpan)
		}
		if f.tr != nil {
			e0 := f.clk.now()
			dels := f.tr.Expire(f.id)
			if traced {
				f.spans = append(f.spans, o.rec.real("window.Expire", chunkSpan, chunkSpan, e0, f.clk.now()))
			}
			for _, d := range dels {
				f.deletions++
				f.outstanding[d.ModelID] -= d.Count
				f.send(transport.Message{
					Kind: transport.MsgDeletion, SiteID: int32(d.SiteID),
					ModelID: int32(d.ModelID), Count: int64(d.Count),
				}, &chunk, o.rec, chunkSpan)
			}
		}
		chunk.Decided = f.clk.now()
		f.chunks = append(f.chunks, chunk)
		if traced {
			f.spans = append(f.spans,
				o.rec.agg("site.Observe", chunkSpan, chunkSpan, aggN, aggDur),
				span{ID: chunkSpan, Trace: chunkSpan, Name: "load.chunk", Start: chunkStart, End: chunk.Decided, N: 1})
			chunkSpan, aggDur, aggN = 0, 0, 0
		}
	}
	if traced && chunkSpan != 0 && aggN > 0 {
		// A partial chunk at the end of the window.
		end := f.clk.now()
		f.spans = append(f.spans,
			o.rec.agg("site.Observe", chunkSpan, chunkSpan, aggN, aggDur),
			span{ID: chunkSpan, Trace: chunkSpan, Name: "load.chunk", Start: chunkStart, End: end, N: 1})
	}
	f.feedTime += f.clk.now() - begin
}

// upgrade turns a weight update for a model whose every record has left
// the sliding window into a full new-model message, as the facade's
// sender does (cludistream.System.sendUpdate): the window's deletions
// drained the model's weight to zero, so the coordinator dropped it, and
// a bare weight update would be refused as naming an unknown model.
// netio.Client does not do this, so over TCP the coordinator refuses
// such updates.
func (f *feeder) upgrade(u site.Update) site.Update {
	if u.Kind == site.WeightUpdate && f.outstanding[u.ModelID] <= 0 {
		for _, m := range f.st.Models() {
			if m.ID == u.ModelID {
				u.Kind, u.Mixture = site.NewModel, m.Mixture
				break
			}
		}
	}
	f.outstanding[u.ModelID] += u.Count
	return u
}

// send ships one message through Conn.Send.
func (f *feeder) send(msg transport.Message, chunk *chunkRec, rec *recorder, parent uint64) {
	t0 := f.clk.now()
	err := f.conn.Send(msg)
	t1 := f.clk.now()
	f.sendTime += t1 - t0
	f.seq++
	if err != nil {
		f.sendEr++
	}
	f.msgs = append(f.msgs, msgRef{Site: f.idx, Seq: f.seq})
	chunk.Msgs = append(chunk.Msgs, len(f.msgs)-1)
	if rec != nil {
		sp := rec.real("netio.Send", parent, parent, t0, t1)
		f.spans = append(f.spans, sp)
		if f.sendSpan == nil {
			f.sendSpan = map[uint64]uint64{}
		}
		f.sendSpan[f.seq] = sp.ID
		f.sendMs = append(f.sendMs, float64(t1-t0)/float64(time.Millisecond))
	}
}

// --- publish loop ------------------------------------------------------------

func (p *pubLoop) run() {
	defer close(p.done)
	t := time.NewTicker(publishEvery)
	defer t.Stop()
	for {
		select {
		case <-p.stop:
			return
		case <-t.C:
		}
		if err := p.onceLocked(); err != nil {
			p.mu.Lock()
			if p.err == nil {
				p.err = err
			}
			p.mu.Unlock()
		}
	}
}

// halt stops the loop and waits for it; safe to call twice.
func (p *pubLoop) halt() {
	select {
	case <-p.stop:
	default:
		close(p.stop)
	}
	<-p.done
}

func (p *pubLoop) onceLocked() error {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.once()
}

// once is one publish step. Callers hold p.mu.
func (p *pubLoop) once() error {
	s := p.sys
	clk := s.clk
	var mix *gaussian.Mixture
	var ver uint64
	var mass float64
	var wm []uint64
	t0 := clk.now()
	s.srv.Snapshot(func(c *coordinator.Coordinator) {
		t1 := clk.now()
		p.lockMs = append(p.lockMs, float64(t1-t0)/float64(time.Millisecond))
		ver = c.MixtureVersion()
		p.coordVer.Store(ver)
		if ver != p.lastVer {
			mix = c.GlobalMixture()
			p.mixMs = append(p.mixMs, float64(clk.now()-t1)/float64(time.Millisecond))
			mass = c.TotalWeight()
			wm = make([]uint64, p.nsites)
			for i := range wm {
				wm[i] = s.ded.Watermark(int32(i + 1)).MaxSeq
			}
		}
		if p.capture {
			p.captureWAL()
		}
	})
	if mix == nil {
		return nil
	}
	t2 := clk.now()
	sn, err := s.pub.Publish(mix, ver, mass)
	if err != nil {
		return fmt.Errorf("publish version %d: %w", ver, err)
	}
	at := clk.now()
	p.pubMs = append(p.pubMs, float64(at-t2)/float64(time.Millisecond))
	p.marks = append(p.marks, pubMark{At: at, WM: wm})
	p.snaps.put(sn)
	p.lastVer = ver
	return nil
}

// captureWAL opens the current WAL generation the first time it is seen.
// It runs under Server.Snapshot, so no append or rotation is in flight;
// the descriptor keeps a generation readable after the store deletes it
// at the next checkpoint.
func (p *pubLoop) captureWAL() {
	gen := p.sys.store.Gen()
	if gen == p.walGen || p.walErr != nil {
		return
	}
	if p.walGen != 0 && gen != p.walGen+1 {
		p.walErr = fmt.Errorf("WAL generations %d..%d rotated between two captures", p.walGen+1, gen-1)
		return
	}
	f, err := os.Open(filepath.Join(p.sys.store.Dir(), fmt.Sprintf("wal-%016d.log", gen)))
	if err != nil {
		p.walErr = err
		return
	}
	p.walFds = append(p.walFds, f)
	p.walGen = gen
}

// frames reads every captured generation, in order: the exact payloads
// the server applied, in apply order.
func (p *pubLoop) frames() ([][]byte, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.walErr != nil {
		return nil, p.walErr
	}
	var out [][]byte
	for _, f := range p.walFds {
		if _, err := f.Seek(0, io.SeekStart); err != nil {
			return nil, err
		}
		data, err := io.ReadAll(f)
		if err != nil {
			return nil, err
		}
		_, recs, torn, err := persist.ReadWAL(data)
		if err != nil {
			return nil, err
		}
		if torn != 0 {
			return nil, fmt.Errorf("WAL %s has a torn tail of %d bytes", f.Name(), torn)
		}
		out = append(out, recs...)
	}
	return out, nil
}

func (p *pubLoop) closeFds() {
	p.mu.Lock()
	defer p.mu.Unlock()
	for _, f := range p.walFds {
		f.Close()
	}
	p.walFds = nil
}
