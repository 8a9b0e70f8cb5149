// Package parallel is the multi-core in-process runtime: one goroutine per
// remote site, each consuming its own stream through a buffered channel.
// Model updates flow through per-site ordered queues drained by a single
// apply goroutine (actor pattern), so site goroutines never stall on the
// coordinator's merge/placement work. It is the deployment shape between
// the fully simulated System (internal/netsim clock, exact byte
// accounting) and the fully distributed one (internal/netio over TCP):
// same protocol semantics, real concurrency, zero network.
package parallel

import (
	"fmt"
	"sync"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
	"cludistream/internal/transport"
	"cludistream/internal/uplink"
)

// Config assembles a Cluster.
type Config struct {
	// Sites configures each remote site; SiteIDs are overwritten with the
	// 1-based index so coordinator bookkeeping stays collision-free.
	Sites []site.Config
	// Coord configures the shared coordinator.
	Coord coordinator.Config
	// Buffer is the per-site input channel depth (default 256). The apply
	// queues use the same depth.
	Buffer int
	// SlidingHorizonChunks enables sliding-window deletions per site.
	SlidingHorizonChunks int
	// MutexApply reverts to the pre-actor behaviour: each site goroutine
	// applies its own updates to the coordinator inline under a mutex,
	// blocking on merge/placement work. Kept as the reference
	// implementation the sharded apply loop is pinned against; production
	// paths leave it off.
	MutexApply bool
	// Telemetry, when non-nil, exports per-site apply-queue depth gauges
	// (parallel.queue_depth.site<N>, sampled at every drain) and is NOT
	// propagated to sites or the coordinator — wire those through their
	// own configs.
	Telemetry *telemetry.Registry
}

// Cluster runs the sites.
type Cluster struct {
	sites  []*site.Site
	inputs []chan linalg.Vector
	wg     sync.WaitGroup

	// Apply path: per-site FIFO queues (channel order = seq order within a
	// site) drained in ascending siteID by the one apply goroutine. notify
	// has capacity 1 and works as a pending flag: producers enqueue first,
	// then set it; the apply goroutine re-checks every queue after
	// consuming it, so no enqueue is ever missed.
	queues     []chan transport.Message
	notify     chan struct{}
	quit       chan struct{}
	applyWg    sync.WaitGroup
	mutexApply bool
	depth      []*telemetry.Gauge

	coordMu sync.Mutex
	coord   *coordinator.Coordinator

	// mu guards the cross-goroutine bookkeeping: the first error observed
	// by any site or apply goroutine, and the byte/message totals (updated
	// together with the error path, so one lock serves both).
	mu       sync.Mutex
	err      error
	bytesOut int
	messages int

	// closeMu serialises Feed against Close so intake channels are never
	// closed mid-send.
	closeMu sync.RWMutex
	closed  bool
}

// New builds and starts a Cluster; site goroutines run until Close.
func New(cfg Config) (*Cluster, error) {
	if len(cfg.Sites) == 0 {
		return nil, fmt.Errorf("parallel: no sites configured")
	}
	if cfg.Buffer <= 0 {
		cfg.Buffer = 256
	}
	coord, err := coordinator.New(cfg.Coord)
	if err != nil {
		return nil, err
	}
	c := &Cluster{
		coord:      coord,
		mutexApply: cfg.MutexApply,
		notify:     make(chan struct{}, 1),
		quit:       make(chan struct{}),
	}
	for i, sc := range cfg.Sites {
		sc.SiteID = i + 1
		// Sites already run one goroutine each; nested EM parallelism would
		// oversubscribe the cores. Bit-identical at any worker count, so
		// this is purely a scheduling choice.
		sc.EM.Workers = 1
		if cfg.SlidingHorizonChunks > 0 {
			sc.EmitFitWeightUpdates = true
		}
		st, err := site.New(sc)
		if err != nil {
			return nil, fmt.Errorf("parallel: site %d: %w", i+1, err)
		}
		em, err := uplink.NewEmitter(st, cfg.SlidingHorizonChunks)
		if err != nil {
			return nil, err
		}
		in := make(chan linalg.Vector, cfg.Buffer)
		c.sites = append(c.sites, st)
		c.inputs = append(c.inputs, in)
		c.queues = append(c.queues, make(chan transport.Message, cfg.Buffer))
		var g *telemetry.Gauge
		if cfg.Telemetry != nil {
			g = cfg.Telemetry.Gauge(fmt.Sprintf("parallel.queue_depth.site%d", i+1))
		}
		c.depth = append(c.depth, g)
		c.wg.Add(1)
		go c.run(em, in, i+1)
	}
	if !c.mutexApply {
		c.applyWg.Add(1)
		go c.applyLoop()
	}
	return c, nil
}

// run is one site goroutine: observe records, hand the resulting messages
// (updates, then sliding-window deletions) to the apply path. After an
// error it keeps draining its channel so feeders never block; the error
// surfaces through Feed/Close.
func (c *Cluster) run(em *uplink.Emitter, in <-chan linalg.Vector, siteID int) {
	defer c.wg.Done()
	failed := false
	for x := range in {
		if failed {
			continue
		}
		msgs, err := em.Observe(x)
		if err != nil {
			c.setErr(err)
			failed = true
			continue
		}
		for _, m := range msgs {
			if c.mutexApply {
				err = c.apply(m)
			} else {
				c.enqueue(siteID, m)
			}
			if err != nil {
				c.setErr(err)
				failed = true
				break
			}
		}
	}
}

// enqueue puts one message on the site's apply queue (blocking only on
// apply-loop backpressure) and flags the apply goroutine.
func (c *Cluster) enqueue(siteID int, m transport.Message) {
	c.queues[siteID-1] <- m
	select {
	case c.notify <- struct{}{}:
	default:
	}
}

// applyLoop is the coordinator actor: it alone mutates the coordinator
// while the cluster runs, draining the per-site queues on every notify and
// once more on shutdown.
func (c *Cluster) applyLoop() {
	defer c.applyWg.Done()
	for {
		select {
		case <-c.notify:
			c.drainQueues()
		case <-c.quit:
			// All site goroutines have exited; one final sweep empties
			// whatever they enqueued after the last notify was consumed.
			c.drainQueues()
			return
		}
	}
}

// drainQueues applies every queued message, visiting sites in ascending
// siteID and each site's queue in FIFO (= seq) order, which keeps the
// apply order deterministic within a drain.
func (c *Cluster) drainQueues() {
	for i := range c.queues {
	site:
		for {
			select {
			case m := <-c.queues[i]:
				if err := c.apply(m); err != nil {
					c.setErr(err)
				}
			default:
				break site
			}
		}
		c.depth[i].Set(float64(len(c.queues[i])))
	}
}

// apply performs one coordinator mutation and accounts its wire cost. In
// sharded mode only the apply goroutine calls it; coordMu is still taken
// so Snapshot/GlobalMixture can read concurrently.
func (c *Cluster) apply(m transport.Message) error {
	c.coordMu.Lock()
	err := durable.Apply(c.coord, m)
	c.coordMu.Unlock()
	if err != nil {
		return err
	}
	c.mu.Lock()
	c.bytesOut += m.WireSize()
	c.messages++
	c.mu.Unlock()
	return nil
}

func (c *Cluster) setErr(err error) {
	c.mu.Lock()
	if c.err == nil {
		c.err = err
	}
	c.mu.Unlock()
}

// Err returns the first error any site goroutine hit (nil if none).
func (c *Cluster) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Feed enqueues one record for site i (0-based). It blocks only on
// backpressure (full channel) and surfaces any previously recorded error.
// Safe to call from multiple goroutines, concurrently with Close.
func (c *Cluster) Feed(i int, x linalg.Vector) error {
	if i < 0 || i >= len(c.inputs) {
		return fmt.Errorf("parallel: site index %d of %d", i, len(c.inputs))
	}
	if err := c.Err(); err != nil {
		return err
	}
	c.closeMu.RLock()
	defer c.closeMu.RUnlock()
	if c.closed {
		return fmt.Errorf("parallel: cluster closed")
	}
	c.inputs[i] <- x
	return nil
}

// NumSites returns the site count.
func (c *Cluster) NumSites() int { return len(c.sites) }

// Close stops intake, waits for all sites and the apply loop to drain,
// and returns the first error encountered. Safe to call more than once
// and concurrently with Feed.
func (c *Cluster) Close() error {
	c.closeMu.Lock()
	first := !c.closed
	if first {
		c.closed = true
		for _, in := range c.inputs {
			close(in)
		}
	}
	c.closeMu.Unlock()
	c.wg.Wait()
	if first && !c.mutexApply {
		close(c.quit)
	}
	c.applyWg.Wait()
	return c.Err()
}

// Snapshot runs fn with the coordinator locked. Safe while sites run —
// the apply goroutine takes the same lock per message — but typically
// called after Close.
func (c *Cluster) Snapshot(fn func(*coordinator.Coordinator)) {
	c.coordMu.Lock()
	defer c.coordMu.Unlock()
	fn(c.coord)
}

// GlobalMixture returns the merged global model under the lock.
func (c *Cluster) GlobalMixture() *gaussian.Mixture {
	c.coordMu.Lock()
	defer c.coordMu.Unlock()
	return c.coord.GlobalMixture()
}

// Site returns site i. Only read it after Close: the owning goroutine
// mutates it while the cluster runs.
func (c *Cluster) Site(i int) *site.Site { return c.sites[i] }

// Stats returns (wire-equivalent bytes, messages) applied so far.
func (c *Cluster) Stats() (bytesOut, messages int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytesOut, c.messages
}
