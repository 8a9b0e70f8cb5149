package parallel

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/telemetry"
)

func testConfig(sites int) Config {
	scs := make([]site.Config, sites)
	for i := range scs {
		scs[i] = site.Config{
			Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
			Seed: int64(i + 1), ChunkSize: 200,
		}
	}
	return Config{
		Sites: scs,
		Coord: coordinator.Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}},
	}
}

func regime(mean float64) *gaussian.Mixture {
	return gaussian.MustMixture(
		[]float64{0.5, 0.5},
		[]*gaussian.Component{
			gaussian.Spherical(linalg.Vector{mean - 2}, 0.5),
			gaussian.Spherical(linalg.Vector{mean + 2}, 0.5),
		})
}

func TestClusterEndToEnd(t *testing.T) {
	c, err := New(testConfig(4))
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(10 + i)))
			mix := regime(float64(i) * 40)
			for rec := 0; rec < 200*3; rec++ {
				if err := c.Feed(i, mix.Sample(rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c.Snapshot(func(co *coordinator.Coordinator) {
		if co.NumModels() != 4 {
			t.Fatalf("models = %d, want 4", co.NumModels())
		}
	})
	gm := c.GlobalMixture()
	for i := 0; i < 4; i++ {
		mean := float64(i) * 40
		probe := []linalg.Vector{{mean - 2}, {mean + 2}}
		if ll := gm.AvgLogLikelihood(probe); ll < -6 {
			t.Fatalf("site %d regime missing from global model: LL=%v", i, ll)
		}
	}
	_, messages := c.Stats()
	if messages != 4 {
		t.Fatalf("messages = %d, want 4", messages)
	}
}

func TestClusterValidation(t *testing.T) {
	if _, err := New(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	bad := testConfig(1)
	bad.Sites[0].K = 0
	if _, err := New(bad); err == nil {
		t.Fatal("invalid site config accepted")
	}
	bad2 := testConfig(1)
	bad2.Coord.Dim = 0
	if _, err := New(bad2); err == nil {
		t.Fatal("invalid coord config accepted")
	}
}

func TestClusterFeedValidation(t *testing.T) {
	c, err := New(testConfig(2))
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Feed(5, linalg.Vector{0}); err == nil {
		t.Fatal("bad index accepted")
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Feed(0, linalg.Vector{0}); err == nil {
		t.Fatal("feed after close accepted")
	}
	// Double close is safe.
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestClusterSurfacesSiteError(t *testing.T) {
	c, err := New(testConfig(1))
	if err != nil {
		t.Fatal(err)
	}
	// Wrong-dimension record: the site goroutine records the error; a
	// subsequent Feed (or Close) must surface it rather than hang.
	_ = c.Feed(0, linalg.Vector{1, 2, 3})
	if err := c.Close(); err == nil {
		t.Fatal("dimension error swallowed")
	}
}

func TestClusterSlidingWindow(t *testing.T) {
	cfg := testConfig(1)
	cfg.SlidingHorizonChunks = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	mix := regime(0)
	for rec := 0; rec < 200*6; rec++ {
		if err := c.Feed(0, mix.Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c.Snapshot(func(co *coordinator.Coordinator) {
		var total float64
		for _, g := range co.Groups() {
			total += g.Weight()
		}
		if math.Abs(total-400) > 1e-6 {
			t.Fatalf("mass = %v, want 400", total)
		}
	})
}

// TestClusterSlidingRegimeReturn: when the stream returns to a regime
// whose model already left the window (A→B→A), the site re-emits a weight
// update for a model the coordinator deleted. The cluster must send it as
// a full model, so nothing is refused and the window holds exactly the
// horizon's records.
func TestClusterSlidingRegimeReturn(t *testing.T) {
	cfg := testConfig(1)
	cfg.SlidingHorizonChunks = 2
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	for _, mean := range []float64{0, 30, 0} {
		mix := regime(mean)
		for rec := 0; rec < 200*3; rec++ {
			if err := c.Feed(0, mix.Sample(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c.Snapshot(func(co *coordinator.Coordinator) {
		if total := co.TotalWeight(); math.Abs(total-400) > 1e-6 {
			t.Fatalf("mass = %v, want 400", total)
		}
	})
}

func TestClusterMatchesSequentialResult(t *testing.T) {
	// The concurrent runtime must produce the same site models as driving
	// the same site sequentially — concurrency must not change results.
	run := func() *site.Site {
		c, err := New(testConfig(1))
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(9))
		mix := regime(0)
		for rec := 0; rec < 200*4; rec++ {
			if err := c.Feed(0, mix.Sample(rng)); err != nil {
				t.Fatal(err)
			}
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		return c.Site(0)
	}
	seq, err := site.New(site.Config{
		SiteID: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01,
		Seed: 1, ChunkSize: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	mix := regime(0)
	for rec := 0; rec < 200*4; rec++ {
		if _, err := seq.Observe(mix.Sample(rng)); err != nil {
			t.Fatal(err)
		}
	}
	par := run()
	if len(par.Models()) != len(seq.Models()) {
		t.Fatalf("model counts differ: %d vs %d", len(par.Models()), len(seq.Models()))
	}
	for i := range par.Models() {
		pm, sm := par.Models()[i], seq.Models()[i]
		if pm.Counter != sm.Counter {
			t.Fatalf("counters differ at %d", i)
		}
		for j := 0; j < pm.Mixture.K(); j++ {
			if !pm.Mixture.Component(j).Equal(sm.Mixture.Component(j), 0) {
				t.Fatal("components differ between parallel and sequential runs")
			}
		}
	}
}

// canonicalGroups renders the coordinator's final groups in a
// representation that is independent of group IDs and arrival order:
// groups sorted by their (deterministically ordered) member keys, with
// exact float bits for weights and representative parameters.
func canonicalGroups(t *testing.T, c *Cluster) string {
	t.Helper()
	var lines []string
	c.Snapshot(func(co *coordinator.Coordinator) {
		for _, g := range co.Groups() {
			line := ""
			for _, k := range g.MemberKeys() {
				line += k.String() + ";"
			}
			line += fmt.Sprintf("w=%016x;", math.Float64bits(g.Weight()))
			rep := g.Representative()
			for _, v := range rep.Mean() {
				line += fmt.Sprintf("m=%016x;", math.Float64bits(v))
			}
			d := len(rep.Mean())
			for r := 0; r < d; r++ {
				for q := 0; q < d; q++ {
					line += fmt.Sprintf("c=%016x;", math.Float64bits(rep.Cov().At(r, q)))
				}
			}
			lines = append(lines, line)
		}
	})
	sort.Strings(lines)
	return strings.Join(lines, "\n")
}

// runShardedWorkload drives a 4-site cluster where every site sees its own
// regime sequence (two models each, all regimes distinct across sites) and
// returns the canonical final groups.
func runShardedWorkload(t *testing.T, mutexApply bool) string {
	t.Helper()
	cfg := testConfig(4)
	cfg.MutexApply = mutexApply
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(20 + i)))
			for rec := 0; rec < 200*3; rec++ {
				if err := c.Feed(i, regime(float64(i)*80).Sample(rng)); err != nil {
					t.Error(err)
					return
				}
			}
			for rec := 0; rec < 200*2; rec++ {
				if err := c.Feed(i, regime(float64(i)*80+40).Sample(rng)); err != nil {
					t.Error(err)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	return canonicalGroups(t, c)
}

func TestShardedApplyMatchesMutex(t *testing.T) {
	// The sharded apply loop must land on bit-identical final groups as
	// the single-mutex reference, at any parallelism level. Site update
	// sequences are deterministic per site and the workload keeps sites'
	// regimes disjoint, so the coordinator's final state is a pure
	// function of the update multiset — any divergence means the actor
	// pipeline dropped, duplicated or corrupted an update.
	ref := runShardedWorkload(t, true)
	if ref == "" {
		t.Fatal("reference run produced no groups")
	}
	prev := runtime.GOMAXPROCS(0)
	defer runtime.GOMAXPROCS(prev)
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		if got := runShardedWorkload(t, false); got != ref {
			t.Fatalf("GOMAXPROCS=%d sharded groups differ from mutex reference:\n%s\n--- want ---\n%s",
				procs, got, ref)
		}
	}
}

func TestFeedCloseConcurrencyHammer(t *testing.T) {
	// Feed from many producers racing Close: no send-on-closed-channel
	// panic, no lost shutdown, and the error surfaced (if any) is the
	// clean "cluster closed" refusal. Run under -race this also checks the
	// stat/err path consolidation.
	for round := 0; round < 5; round++ {
		c, err := New(testConfig(4))
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		start := make(chan struct{})
		for p := 0; p < 8; p++ {
			wg.Add(1)
			go func(p int) {
				defer wg.Done()
				rng := rand.New(rand.NewSource(int64(100 + p)))
				<-start
				for rec := 0; ; rec++ {
					x := linalg.Vector{rng.NormFloat64()}
					if err := c.Feed(rec%4, x); err != nil {
						return // closed mid-feed: expected
					}
				}
			}(p)
		}
		close(start)
		if round%2 == 0 {
			runtime.Gosched()
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		wg.Wait()
		// After Close every accepted record was processed and applied.
		if err := c.Err(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestQueueDepthGauges(t *testing.T) {
	cfg := testConfig(2)
	cfg.Telemetry = telemetry.NewRegistry()
	c, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(77))
	for rec := 0; rec < 200*2; rec++ {
		for i := 0; i < 2; i++ {
			if err := c.Feed(i, regime(float64(i)*60).Sample(rng)); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	// The final shutdown drain must leave both queues observed empty.
	for i := 1; i <= 2; i++ {
		name := fmt.Sprintf("parallel.queue_depth.site%d", i)
		if v := cfg.Telemetry.Gauge(name).Value(); v != 0 {
			t.Fatalf("%s = %v after close, want 0", name, v)
		}
	}
	_, messages := c.Stats()
	if messages == 0 {
		t.Fatal("no messages applied")
	}
}
