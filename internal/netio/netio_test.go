package netio

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"net"
	"reflect"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cludistream"
	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

func newCoord(t *testing.T) *coordinator.Coordinator {
	t.Helper()
	c, err := coordinator.New(coordinator.Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func newSite(t *testing.T, id int) *site.Site {
	t.Helper()
	s, err := site.New(site.Config{
		SiteID: id, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
		Seed: int64(id), ChunkSize: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func regime(mean float64) *gaussian.Mixture {
	return gaussian.MustMixture(
		[]float64{0.5, 0.5},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{mean - 2}, 0.5),
			gaussian.Spherical(linalg.Vector{mean + 2}, 0.5),
		})
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{7}, 100000)}
	for _, p := range payloads {
		if err := writeFrame(&buf, p); err != nil {
			t.Fatal(err)
		}
	}
	for _, want := range payloads {
		got, err := readFrame(&buf)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("frame corrupted: %d bytes vs %d", len(got), len(want))
		}
	}
}

func TestFrameTooLarge(t *testing.T) {
	// A forged length prefix above the cap must be rejected without
	// allocating the claimed size.
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := readFrame(&buf); err != ErrFrameTooLarge {
		t.Fatalf("err = %v", err)
	}
	if err := writeFrame(&buf, make([]byte, maxFrameSize+1)); err != ErrFrameTooLarge {
		t.Fatalf("write err = %v", err)
	}
}

func TestAckRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	_ = writeAck(&buf, true)
	_ = writeAck(&buf, false)
	if err := readAck(&buf); err != nil {
		t.Fatalf("ok ack: %v", err)
	}
	if err := readAck(&buf); err != ErrRemote {
		t.Fatalf("err ack: %v", err)
	}
	buf.Write([]byte{0x42})
	if err := readAck(&buf); err == nil {
		t.Fatal("invalid ack byte accepted")
	}
}

func TestEndToEndOverTCP(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const sites = 3
	clients := make([]*Client, sites)
	for i := range clients {
		c, err := Dial(srv.Addr().String(), newSite(t, i+1), i+1, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		clients[i] = c
	}

	rng := rand.New(rand.NewSource(1))
	mix := regime(0)
	for rec := 0; rec < 200*3; rec++ {
		for _, c := range clients {
			if err := c.Observe(mix.Sample(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}

	// Synchronous acks mean everything sent has been applied.
	_, messages, applyErrs := srv.Stats()
	if messages != 3 {
		t.Fatalf("server applied %d messages, want 3", messages)
	}
	if applyErrs != 0 {
		t.Fatalf("apply errors: %d", applyErrs)
	}
	srv.Snapshot(func(c *coordinator.Coordinator) {
		if c.NumModels() != 3 {
			t.Fatalf("coordinator has %d models", c.NumModels())
		}
		gm := c.GlobalMixture()
		if gm == nil {
			t.Fatal("no global mixture")
		}
		if ll := gm.AvgLogLikelihood([]linalg.Vector{{-2}, {2}}); ll < -4 {
			t.Fatalf("global LL = %v", ll)
		}
	})

	// Client accounting matches server accounting.
	var clientBytes int
	for _, c := range clients {
		b, m := c.Stats()
		clientBytes += b
		if m != 1 {
			t.Fatalf("client messages = %d", m)
		}
	}
	serverBytes, _, _ := srv.Stats()
	if clientBytes != serverBytes {
		t.Fatalf("byte accounting: clients %d vs server %d", clientBytes, serverBytes)
	}
}

func TestConcurrentClients(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const sites = 8
	var wg sync.WaitGroup
	errs := make(chan error, sites)
	for i := 0; i < sites; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			c, err := Dial(srv.Addr().String(), newSite(t, id), id, DialOptions{})
			if err != nil {
				errs <- err
				return
			}
			defer c.Close()
			rng := rand.New(rand.NewSource(int64(id)))
			mix := regime(float64(id) * 30)
			for rec := 0; rec < 200*2; rec++ {
				if err := c.Observe(mix.Sample(rng)); err != nil {
					errs <- err
					return
				}
			}
		}(i + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	srv.Snapshot(func(c *coordinator.Coordinator) {
		if c.NumModels() != sites {
			t.Fatalf("models = %d, want %d", c.NumModels(), sites)
		}
	})
}

func TestSlidingWindowDeletionsOverTCP(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	st := newSite(t, 1)
	// Sliding windows need the coordinator's weights synced to the site
	// counters.
	c, err := Dial(srv.Addr().String(), mustSlidingSite(t), 1, DialOptions{SlidingHorizonChunks: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_ = st

	rng := rand.New(rand.NewSource(2))
	mix := regime(0)
	for rec := 0; rec < 200*6; rec++ {
		if err := c.Observe(mix.Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
	srv.Snapshot(func(co *coordinator.Coordinator) {
		var total float64
		for _, g := range co.Groups() {
			total += g.Weight()
		}
		if math.Abs(total-400) > 1e-6 {
			t.Fatalf("coordinator mass = %v, want 400 (horizon 2 × 200)", total)
		}
	})
}

// TestSlidingParityOverTCP: a sliding-window site whose stream returns to
// an earlier regime (A→B→A) re-emits a weight update for a model the
// coordinator already deleted when its last records left the window. The
// TCP client must upgrade it to a full model exactly as the simulated
// facade does: nothing is rejected, and the server ends with the same
// per-model weights as a fault-free facade fed the same site and records.
func TestSlidingParityOverTCP(t *testing.T) {
	const chunk, horizon = 200, 2
	cfg := cludistream.Config{
		NumSites: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01, CMax: 4,
		Seed: 1, ChunkSize: chunk, SlidingHorizonChunks: horizon,
	}
	st, err := site.New(site.Config{
		SiteID: 1, Dim: cfg.Dim, K: cfg.K, Epsilon: cfg.Epsilon, FitEps: cfg.FitEps,
		Delta: cfg.Delta, CMax: cfg.CMax, Seed: cfg.Seed, ChunkSize: chunk,
		EmitFitWeightUpdates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	var records []linalg.Vector
	rng := rand.New(rand.NewSource(5))
	for _, mean := range []float64{0, 30, 0} {
		mix := regime(mean)
		for i := 0; i < 3*chunk; i++ {
			records = append(records, mix.Sample(rng))
		}
	}

	sys, err := cludistream.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range records {
		if err := sys.Feed(0, x); err != nil {
			t.Fatal(err)
		}
	}
	if err := sys.Drain(); err != nil {
		t.Fatal(err)
	}

	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	c, err := Dial(srv.Addr().String(), st, 1, DialOptions{SlidingHorizonChunks: horizon})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	for _, x := range records {
		if err := c.Observe(x); err != nil && !errors.Is(err, ErrRemote) {
			t.Fatal(err)
		}
	}
	if err := c.Flush(10 * time.Second); err != nil && !errors.Is(err, ErrRemote) {
		t.Fatal(err)
	}
	if d := c.Delivery(); d.Rejected != 0 {
		t.Fatalf("coordinator rejected %d of %d messages", d.Rejected, d.Acked+d.Rejected)
	}

	sorted := func(mw []coordinator.ModelWeight) []coordinator.ModelWeight {
		sort.Slice(mw, func(i, j int) bool {
			if mw[i].SiteID != mw[j].SiteID {
				return mw[i].SiteID < mw[j].SiteID
			}
			return mw[i].ModelID < mw[j].ModelID
		})
		return mw
	}
	want := sorted(sys.Coordinator().ModelWeights())
	var got []coordinator.ModelWeight
	srv.Snapshot(func(co *coordinator.Coordinator) { got = sorted(co.ModelWeights()) })
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("server model weights %+v, facade %+v", got, want)
	}
}

func mustSlidingSite(t *testing.T) *site.Site {
	t.Helper()
	s, err := site.New(site.Config{
		SiteID: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
		Seed: 1, ChunkSize: 200, EmitFitWeightUpdates: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestUploaderTwoLevelHierarchy(t *testing.T) {
	// Root coordinator ← aggregator ← site: the §7 tree over real TCP.
	rootCoord := newCoord(t)
	rootSrv, err := NewServer("127.0.0.1:0", rootCoord)
	if err != nil {
		t.Fatal(err)
	}
	defer rootSrv.Close()

	aggCoord := newCoord(t)
	aggSrv, err := NewServer("127.0.0.1:0", aggCoord)
	if err != nil {
		t.Fatal(err)
	}
	defer aggSrv.Close()

	upConn, err := DialConn(rootSrv.Addr().String(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer upConn.Close()
	up := NewUploader(upConn, 100)

	// Two sites feed the aggregator.
	rng := rand.New(rand.NewSource(5))
	for i := 1; i <= 2; i++ {
		c, err := Dial(aggSrv.Addr().String(), newSite(t, i), i, DialOptions{})
		if err != nil {
			t.Fatal(err)
		}
		mix := regime(float64(i-1) * 40)
		for rec := 0; rec < 200*2; rec++ {
			if err := c.Observe(mix.Sample(rng)); err != nil {
				t.Fatal(err)
			}
		}
		c.Close()
	}

	// Sync the aggregator's merged model upward.
	syncOnce := func() bool {
		var sent bool
		aggSrv.Snapshot(func(co *coordinator.Coordinator) {
			var total float64
			for _, g := range co.Groups() {
				total += g.Weight()
			}
			var err error
			sent, err = up.Sync(co.GlobalMixture(), total)
			if err != nil {
				t.Fatal(err)
			}
		})
		return sent
	}
	if !syncOnce() {
		t.Fatal("first sync transmitted nothing")
	}
	// Unchanged model: second sync must be silent.
	if syncOnce() {
		t.Fatal("unchanged model re-uploaded")
	}
	rootSrv.Snapshot(func(co *coordinator.Coordinator) {
		if co.NumModels() != 1 {
			t.Fatalf("root has %d models, want the aggregator's 1", co.NumModels())
		}
		gm := co.GlobalMixture()
		for _, mean := range []float64{0, 40} {
			probe := []linalg.Vector{{mean - 2}, {mean + 2}}
			if ll := gm.AvgLogLikelihood(probe); ll < -8 {
				t.Fatalf("regime at %v missing from root: LL=%v", mean, ll)
			}
		}
	})

	// A third site with a new regime changes the aggregator's model; the
	// next sync must replace the root's copy (deletion + new model).
	c3, err := Dial(aggSrv.Addr().String(), newSite(t, 3), 3, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	mix := regime(-40)
	for rec := 0; rec < 200*2; rec++ {
		if err := c3.Observe(mix.Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
	c3.Close()
	if !syncOnce() {
		t.Fatal("changed model not re-uploaded")
	}
	rootSrv.Snapshot(func(co *coordinator.Coordinator) {
		if co.NumModels() != 1 {
			t.Fatalf("stale upload not replaced: %d models", co.NumModels())
		}
		probe := []linalg.Vector{{-42}, {-38}}
		if ll := co.GlobalMixture().AvgLogLikelihood(probe); ll < -8 {
			t.Fatalf("new regime missing after re-upload: LL=%v", ll)
		}
	})
}

func TestServerRejectsGarbage(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	srv.Logf = func(string, ...any) {} // expected noise
	defer srv.Close()

	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, []byte{9, 9, 9}); err != nil {
		t.Fatal(err)
	}
	if err := readAck(conn); err != ErrRemote {
		t.Fatalf("garbage frame ack = %v, want ErrRemote", err)
	}
	_, _, applyErrs := srv.Stats()
	if applyErrs != 1 {
		t.Fatalf("applyErrs = %d", applyErrs)
	}
}

func TestClientObserveAllAndSite(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	st := newSite(t, 1)
	c, err := Dial(srv.Addr().String(), st, 1, DialOptions{})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if c.Site() != st {
		t.Fatal("Site accessor mismatch")
	}
	rng := rand.New(rand.NewSource(7))
	batch := make([]linalg.Vector, 200*2)
	mix := regime(0)
	for i := range batch {
		batch[i] = mix.Sample(rng)
	}
	if err := c.ObserveAll(batch); err != nil {
		t.Fatal(err)
	}
	if _, messages := c.Stats(); messages != 1 {
		t.Fatalf("messages = %d", messages)
	}
	// A wrong-dimension record aborts the batch with the site's error.
	if err := c.ObserveAll([]linalg.Vector{{1, 2, 3}}); err == nil {
		t.Fatal("bad batch accepted")
	}
}

func TestServerCustomLogf(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	var logged int
	srv.Logf = func(string, ...any) { logged++ }
	conn, err := net.Dial("tcp", srv.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := writeFrame(conn, []byte{1, 2, 3}); err != nil { // undecodable
		t.Fatal(err)
	}
	if err := readAck(conn); err != ErrRemote {
		t.Fatalf("ack = %v", err)
	}
	if logged == 0 {
		t.Fatal("custom Logf never invoked")
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", newSite(t, 1), 1, DialOptions{Timeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestDialInvalidHorizon(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	if _, err := Dial(srv.Addr().String(), newSite(t, 1), 1, DialOptions{SlidingHorizonChunks: -1}); err == nil {
		t.Fatal("negative horizon accepted")
	}
}

func TestServerCloseDegradesGracefully(t *testing.T) {
	coord := newCoord(t)
	srv, err := NewServer("127.0.0.1:0", coord)
	if err != nil {
		t.Fatal(err)
	}
	c, err := Dial(srv.Addr().String(), newSite(t, 1), 1, DialOptions{
		Retry: RetryPolicy{AttemptTimeout: 300 * time.Millisecond, BaseBackoff: time.Millisecond, MaxBackoff: 20 * time.Millisecond},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := srv.Close(); err != nil && !strings.Contains(err.Error(), "use of closed") {
		t.Fatalf("close: %v", err)
	}
	// With the coordinator gone, the site must keep clustering locally:
	// Observe queues updates in the outbox instead of failing or hanging.
	rng := rand.New(rand.NewSource(3))
	mix := regime(0)
	for rec := 0; rec < 200*2; rec++ {
		if err := c.Observe(mix.Sample(rng)); err != nil {
			t.Fatalf("observe against a dead coordinator: %v", err)
		}
	}
	d := c.Delivery()
	if d.Queued == 0 {
		t.Fatal("no updates queued while disconnected")
	}
	if d.Acked != 0 {
		t.Fatalf("acked %d messages against a closed server", d.Acked)
	}
	// A bounded flush against a dead coordinator reports the backlog.
	if err := c.Flush(100 * time.Millisecond); err == nil {
		t.Fatal("flush against a dead coordinator succeeded")
	}
	if st := c.Site().Stats(); st.Chunks == 0 {
		t.Fatal("site stopped clustering while disconnected")
	}
}
