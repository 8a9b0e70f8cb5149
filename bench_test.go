package cludistream_test

// The benchmark harness regenerates every table and figure of the paper's
// evaluation (run with `go test -bench=. -benchmem`). Each BenchmarkFigN
// executes the corresponding experiment at the Quick profile and reports
// figure-specific metrics (bytes, ratios, average log-likelihoods) through
// b.ReportMetric, so a bench run doubles as a reproduction report. The
// micro-benchmarks at the bottom cover the hot paths the figures aggregate.

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/em"
	"cludistream/internal/experiments"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
	"cludistream/internal/smem"
	"cludistream/internal/stream"
	"cludistream/internal/telemetry"

	cludistream "cludistream"
)

// nan returns NaN without importing math at every use site.
func nan() float64 { return math.NaN() }

// benchParams returns the Quick profile with a bench-stable seed.
func benchParams() experiments.Params {
	p := experiments.Quick()
	p.Seed = 1
	return p
}

// runFigure executes one experiment per iteration and lets the caller
// export headline metrics from the final table.
func runFigure(b *testing.B, run func(experiments.Params) (*experiments.Table, error), report func(*testing.B, *experiments.Table)) {
	b.Helper()
	var last *experiments.Table
	for i := 0; i < b.N; i++ {
		tb, err := run(benchParams())
		if err != nil {
			b.Fatal(err)
		}
		last = tb
	}
	if report != nil && last != nil {
		report(b, last)
	}
}

func BenchmarkFig1MergeCriterion(b *testing.B) {
	runFigure(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig1(p, true)
	}, nil)
}

func BenchmarkFig2CommunicationCost(b *testing.B) {
	runFigure(b, experiments.Fig2a, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-bytes")
		b.ReportMetric(last[2], "sem-bytes")
		if last[1] > 0 {
			b.ReportMetric(last[2]/last[1], "sem/clud-ratio")
		}
	})
}

func BenchmarkFig2bCommunicationCostPd(b *testing.B) {
	runFigure(b, experiments.Fig2b, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-bytes-pd0.1")
		b.ReportMetric(last[3], "clud-bytes-pd0.5")
		b.ReportMetric(last[4], "sem-bytes")
	})
}

func BenchmarkFig3Histograms(b *testing.B) {
	runFigure(b, experiments.Fig3, nil)
}

func BenchmarkFig4NoiseRobustness(b *testing.B) {
	runFigure(b, experiments.Fig4, nil)
}

func BenchmarkFig5HorizonQuality(b *testing.B) {
	runFigure(b, experiments.Fig5, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-avgLL")
		b.ReportMetric(last[2], "sem-avgLL")
	})
}

func BenchmarkFig6LandmarkQuality(b *testing.B) {
	runFigure(b, experiments.Fig6, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-avgLL")
		b.ReportMetric(last[2], "sem-avgLL")
		b.ReportMetric(last[3], "sampling-avgLL")
	})
}

func BenchmarkFig7CoordinatorQuality(b *testing.B) {
	runFigure(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig7(p, false)
	}, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-avgLL")
		b.ReportMetric(last[2], "central-sem-avgLL")
	})
}

func BenchmarkFig8Throughput(b *testing.B) {
	runFigure(b, func(p experiments.Params) (*experiments.Table, error) {
		return experiments.Fig8(p, false)
	}, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[0]/last[1], "clud-updates/s")
		b.ReportMetric(last[0]/last[2], "sem-updates/s")
	})
}

func BenchmarkFig9aVaryK(b *testing.B) {
	runFigure(b, experiments.Fig9a, nil)
}

func BenchmarkFig9bVaryD(b *testing.B) {
	runFigure(b, experiments.Fig9b, nil)
}

func BenchmarkFig10Memory(b *testing.B) {
	runFigure(b, experiments.Fig10a, func(b *testing.B, tb *experiments.Table) {
		last := tb.Rows[len(tb.Rows)-1]
		b.ReportMetric(last[1], "clud-bytes")
		b.ReportMetric(last[2], "sem-bytes")
	})
}

func BenchmarkFig10bMemoryModel(b *testing.B) {
	runFigure(b, experiments.Fig10b, nil)
}

func BenchmarkFig11VaryEpsilon(b *testing.B) {
	runFigure(b, experiments.Fig11, nil)
}

func BenchmarkFig12VaryDelta(b *testing.B) {
	runFigure(b, experiments.Fig12, nil)
}

func BenchmarkFig13VaryCmax(b *testing.B) {
	runFigure(b, experiments.Fig13, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][2], "em-runs-cmax1")
		b.ReportMetric(tb.Rows[3][2], "em-runs-cmax4")
	})
}

func BenchmarkFig14VaryPd(b *testing.B) {
	runFigure(b, experiments.Fig14, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][1], "sec-pd0.1")
		b.ReportMetric(tb.Rows[len(tb.Rows)-1][1], "sec-pd1.0")
	})
}

func BenchmarkAblationAlwaysCluster(b *testing.B) {
	runFigure(b, experiments.AblationTestAndCluster, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][3], "speedup-pd0.1")
	})
}

func BenchmarkAblationMergeFit(b *testing.B) {
	runFigure(b, experiments.AblationMergeFit, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][0], "moment-L1")
		b.ReportMetric(tb.Rows[0][1], "simplex-L1")
	})
}

func BenchmarkAblationCovType(b *testing.B) {
	runFigure(b, experiments.AblationCovType, nil)
}

func BenchmarkAblationTestStatistic(b *testing.B) {
	runFigure(b, experiments.AblationSharpTest, nil)
}

func BenchmarkAblationVsDEM(b *testing.B) {
	runFigure(b, experiments.AblationVsDEM, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][0], "clud-bytes")
		b.ReportMetric(tb.Rows[0][1], "dem-bytes")
	})
}

func BenchmarkAblationMergeTree(b *testing.B) {
	runFigure(b, experiments.AblationMergeTree, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][0], "merged-K")
		b.ReportMetric(tb.Rows[0][1], "flat-K")
	})
}

// --- micro-benchmarks over the hot paths ---

func benchMixture(k, d int) *gaussian.Mixture {
	rng := rand.New(rand.NewSource(1))
	comps := make([]*gaussian.Component, k)
	ws := make([]float64, k)
	for j := range comps {
		mean := linalg.NewVector(d)
		for i := range mean {
			mean[i] = rng.NormFloat64() * 5
		}
		comps[j] = gaussian.Spherical(mean, 1+rng.Float64())
		ws[j] = 1
	}
	return gaussian.MustMixture(ws, comps)
}

func BenchmarkMixtureLogPDF(b *testing.B) {
	m := benchMixture(5, 4)
	x := linalg.Vector{1, -1, 0.5, 2}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.LogPDF(x)
	}
}

func BenchmarkMixturePosterior(b *testing.B) {
	m := benchMixture(5, 4)
	x := linalg.Vector{1, -1, 0.5, 2}
	dst := make([]float64, 5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PosteriorInto(x, dst)
	}
}

func BenchmarkEMFitChunk(b *testing.B) {
	m := benchMixture(5, 4)
	data := m.SampleN(rand.New(rand.NewSource(2)), 314)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.Fit(data, em.Config{K: 5, Seed: 1, MaxIter: 50, Tol: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSiteObserve(b *testing.B) {
	st, err := site.New(site.Config{
		SiteID: 1, Dim: 4, K: 5, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: 4, K: 5, Pd: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := stream.Take(gen, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Observe(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSystemFeed(b *testing.B) {
	sys, err := cludistream.New(cludistream.Config{NumSites: 4, Dim: 4, K: 5, Epsilon: 0.1, FitEps: 0.8, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	gen, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: 4, K: 5, Pd: 0.1, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	data := stream.Take(gen, 100_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := sys.Feed(i%4, data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationSnapshots(b *testing.B) {
	runFigure(b, experiments.AblationSnapshots, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][2], "event-driven-accuracy")
		b.ReportMetric(tb.Rows[3][2], "sparse-snapshot-accuracy")
	})
}

func BenchmarkAblationHierarchy(b *testing.B) {
	runFigure(b, experiments.AblationHierarchy, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][2], "flat-steady-bytes")
		b.ReportMetric(tb.Rows[1][2], "tree-steady-bytes")
	})
}

func BenchmarkAblationIncomplete(b *testing.B) {
	runFigure(b, experiments.AblationIncomplete, func(b *testing.B, tb *experiments.Table) {
		b.ReportMetric(tb.Rows[0][1], "avgLL-clean")
		b.ReportMetric(tb.Rows[2][1], "avgLL-30pct-missing")
	})
}

func BenchmarkEMFitIncomplete(b *testing.B) {
	m := benchMixture(5, 4)
	rng := rand.New(rand.NewSource(6))
	data := m.SampleN(rng, 314)
	for _, x := range data {
		if rng.Float64() < 0.5 {
			x[rng.Intn(4)] = nan()
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := em.FitIncomplete(data, em.Config{K: 5, Seed: 1, MaxIter: 50, Tol: 1e-3}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSMEMFit(b *testing.B) {
	m := benchMixture(3, 2)
	data := m.SampleN(rand.New(rand.NewSource(7)), 600)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := smem.Fit(data, smem.Config{EM: em.Config{K: 3, Seed: 1, MaxIter: 40, Tol: 1e-3}}); err != nil {
			b.Fatal(err)
		}
	}
}

// benchData samples n points from a bench mixture for batch benchmarks.
func benchData(m *gaussian.Mixture, n int, seed int64) []linalg.Vector {
	return m.SampleN(rand.New(rand.NewSource(seed)), n)
}

// BenchmarkScoreScalar / BenchmarkScoreBatch compare per-record LogPDF
// against the blocked panel scorer on the same 1024-record workload
// (d=8, K=4 — the regime the batch layer targets).
func BenchmarkScoreScalar(b *testing.B) {
	m := benchMixture(4, 8)
	data := benchData(m, 1024, 4)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, x := range data {
			sum += m.LogPDF(x)
		}
		_ = sum
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/record")
}

func BenchmarkScoreBatch(b *testing.B) {
	m := benchMixture(4, 8)
	data := benchData(m, 1024, 4)
	dst := make([]float64, len(data))
	scratch := gaussian.NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.ScoreBatch(data, dst, scratch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/record")
}

// BenchmarkPosteriorScalar / BenchmarkPosteriorBatch compare the E-step
// responsibility computation record-at-a-time against the batched panel
// path.
func BenchmarkPosteriorScalar(b *testing.B) {
	m := benchMixture(4, 8)
	data := benchData(m, 1024, 5)
	post := make([]float64, m.K())
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, x := range data {
			sum += m.PosteriorInto(x, post)
		}
		_ = sum
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/record")
}

func BenchmarkPosteriorBatch(b *testing.B) {
	m := benchMixture(4, 8)
	data := benchData(m, 1024, 5)
	post := linalg.NewMatrix(0, 0)
	scratch := gaussian.NewBatchScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = m.PosteriorBatch(data, post, nil, scratch)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(len(data)), "ns/record")
}

// BenchmarkEMFitWorkers measures the fused parallel E+M pass at several
// worker counts on a d=8, K=4, n=4096 workload. The fitted model is
// bit-identical at every count (see em.TestFitWorkerCountInvariant), so
// the sub-benchmarks differ only in wall clock; on a multi-core machine
// workers=4/8 should beat workers=1 by the core count, saturating at
// GOMAXPROCS.
func BenchmarkEMFitWorkers(b *testing.B) {
	m := benchMixture(4, 8)
	data := benchData(m, 4096, 8)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				if _, err := em.Fit(data, em.Config{K: 4, Seed: 1, MaxIter: 30, Tol: 1e-4, Workers: workers}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

func BenchmarkCholeskyDecompose(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	d := 8
	cov := linalg.NewSym(d)
	for t := 0; t < d+2; t++ {
		v := linalg.NewVector(d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		cov.AddOuterScaled(1, v)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := linalg.CholeskyDecompose(cov); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkQuadFormScalar / BenchmarkQuadFormPanel compare the scalar
// Mahalanobis quadratic form against the blocked panel solve at d=8 over
// a 128-record panel (one batch block).
func BenchmarkQuadFormScalar(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const d, n = 8, 128
	cov := linalg.NewSym(d)
	for t := 0; t < d+2; t++ {
		v := linalg.NewVector(d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		cov.AddOuterScaled(1, v)
	}
	chol, err := linalg.CholeskyDecompose(cov)
	if err != nil {
		b.Fatal(err)
	}
	xs := make([]linalg.Vector, n)
	for p := range xs {
		xs[p] = linalg.NewVector(d)
		for i := range xs[p] {
			xs[p][i] = rng.NormFloat64()
		}
	}
	scratch := linalg.NewVector(d)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum float64
		for _, x := range xs {
			sum += chol.QuadFormScratch(x, scratch)
		}
		_ = sum
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
}

func BenchmarkQuadFormPanel(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	const d, n = 8, 128
	cov := linalg.NewSym(d)
	for t := 0; t < d+2; t++ {
		v := linalg.NewVector(d)
		for i := range v {
			v[i] = rng.NormFloat64()
		}
		cov.AddOuterScaled(1, v)
	}
	chol, err := linalg.CholeskyDecompose(cov)
	if err != nil {
		b.Fatal(err)
	}
	src := make([]float64, d*n)
	for i := range src {
		src[i] = rng.NormFloat64()
	}
	panel := make([]float64, d*n)
	dst := make([]float64, n)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		copy(panel, src) // the solve is in-place; restore the rhs each round
		chol.QuadFormPanel(panel, n, n, dst)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/record")
}

func BenchmarkFitMerge(b *testing.B) {
	a := gaussian.Spherical(linalg.Vector{-1, 0, 0, 0}, 1)
	c := gaussian.Spherical(linalg.Vector{1, 0.5, 0, 0}, 1.5)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_, _ = gaussian.FitMerge(0.5, a, 0.5, c, gaussian.MergeOptions{Seed: 1})
	}
}

// BenchmarkTelemetryOverheadEMFit pins the disabled-telemetry cost of the
// EM hot path at (approximately) zero: the "off" and "on" sub-benchmarks
// run the identical d=8, K=4, n=4096 fit with and without a registry
// attached. Instruments fire per EM *fit*, never per record or iteration,
// so both arms should agree within noise (< 2%).
func BenchmarkTelemetryOverheadEMFit(b *testing.B) {
	m := benchMixture(4, 8)
	data := benchData(m, 4096, 8)
	run := func(b *testing.B, reg *telemetry.Registry) {
		for i := 0; i < b.N; i++ {
			if _, err := em.Fit(data, em.Config{K: 4, Seed: 1, MaxIter: 30, Tol: 1e-4, Telemetry: reg}); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, telemetry.NewRegistry()) })
}

// BenchmarkTelemetryOverheadSystem measures the end-to-end stream path —
// site chunking, J_fit tests, EM refits, simulated delivery, coordinator
// merging — with telemetry off and on. This covers the per-record
// instrument (one atomic increment) plus all per-chunk decision tracing.
func BenchmarkTelemetryOverheadSystem(b *testing.B) {
	g, err := stream.NewSynthetic(stream.SyntheticConfig{Dim: 1, K: 2, Pd: 0.5, RegimeLen: 250, Seed: 7})
	if err != nil {
		b.Fatal(err)
	}
	records := stream.Take(g, 200*5*3)
	run := func(b *testing.B, attach bool) {
		for i := 0; i < b.N; i++ {
			cfg := cludistream.Config{
				NumSites: 3, Dim: 1, K: 2, Epsilon: 0.5, Delta: 0.01,
				Seed: 1, ChunkSize: 200,
				Merge: gaussian.MergeOptions{MomentOnly: true},
			}
			if attach {
				cfg.Telemetry = telemetry.NewRegistry()
			}
			sys, err := cludistream.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if err := sys.FeedRoundRobin(records); err != nil {
				b.Fatal(err)
			}
			if err := sys.Drain(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("off", func(b *testing.B) { run(b, false) })
	b.Run("on", func(b *testing.B) { run(b, true) })
}

// benchDriftMix builds the warm-start drift workload mixture: three
// overlapping 4-d components centred near mean (overlap is what makes cold
// k-means++ EM iterate long enough for warm seeding to matter).
func benchDriftMix(mean float64) *gaussian.Mixture {
	comps := make([]*gaussian.Component, 3)
	ws := []float64{0.5, 0.3, 0.2}
	for j := range comps {
		mu := linalg.NewVector(4)
		for i := range mu {
			mu[i] = mean + float64(j)*2 + 0.3*float64(i)
		}
		comps[j] = gaussian.Spherical(mu, 1)
	}
	return gaussian.MustMixture(ws, comps)
}

// BenchmarkSiteSteadyState measures the paper's common case — a stationary
// stream where every chunk passes the J_fit test and EM never runs — and
// asserts the pooled ingest path stays at 0 allocs/record (the chunker's
// two-buffer recycle protocol plus the pooled batch scorer).
func BenchmarkSiteSteadyState(b *testing.B) {
	st, err := site.New(site.Config{
		SiteID: 1, Dim: 4, K: 5, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01, Seed: 1,
	})
	if err != nil {
		b.Fatal(err)
	}
	data := benchData(benchMixture(5, 4), 100_000, 2)
	// Establish the first model so the measured loop is pure test-mode.
	for _, x := range data[:2*st.ChunkSize()] {
		if _, err := st.Observe(x); err != nil {
			b.Fatal(err)
		}
	}
	idx := 0
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := st.Observe(data[idx%len(data)]); err != nil {
			b.Fatal(err)
		}
		idx++
	}); avg != 0 {
		b.Fatalf("steady-state Observe allocates %v per record, want 0", avg)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Observe(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// BenchmarkSiteRefit drives a gradual-drift stream (mean moves 0.3 per
// chunk, past ε but inside the WarmMargin gate) through a site with warm
// starts off and on. The em-iters/fit metric is the tentpole number: warm
// seeding plus the relative early-stop should cut EM iterations per refit
// well below the cold k-means++ baseline on the same stream.
func BenchmarkSiteRefit(b *testing.B) {
	rng := rand.New(rand.NewSource(9))
	var data []linalg.Vector
	for d := 0; d <= 14; d++ {
		data = append(data, benchDriftMix(0.3*float64(d)).SampleN(rng, 300)...)
	}
	run := func(b *testing.B, ws string) {
		reg := telemetry.NewRegistry()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := site.New(site.Config{
				SiteID: 1, Dim: 4, K: 3, Epsilon: 0.1, Delta: 0.01,
				Seed: 1, ChunkSize: 300, WarmStart: ws, Telemetry: reg,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, x := range data {
				if _, err := st.Observe(x); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.StopTimer()
		if fits := reg.Counter("em.fits").Value(); fits > 0 {
			b.ReportMetric(float64(reg.Counter("em.iterations").Value())/float64(fits), "em-iters/fit")
		}
		if n := float64(b.N); n > 0 {
			b.ReportMetric(float64(reg.Counter("site.warm_refits").Value())/n, "warm-refits")
			b.ReportMetric(float64(reg.Counter("site.warm_fallbacks").Value())/n, "warm-fallbacks")
		}
	}
	b.Run("cold", func(b *testing.B) { run(b, site.WarmStartCold) })
	b.Run("warm", func(b *testing.B) { run(b, site.WarmStartOn) })
}

// BenchmarkScorePruned measures the steady-state J_fit test at growing K
// with the k-d-pruned scorer off (exact per-record scan over all K
// components) and on (top-m candidates from the mean index, exact-fallback
// guarded). Decisions are bit-identical across arms — the pruned bound only
// replaces scans it can prove decisive — so the records/s gap is pure
// pruning win. At K=4 the prune gate (K ≥ 2m) keeps both arms exact.
func BenchmarkScorePruned(b *testing.B) {
	for _, k := range []int{4, 16, 64} {
		for _, arm := range []struct {
			name string
			topM int
		}{{"exact", -1}, {"pruned", 0}} {
			b.Run(fmt.Sprintf("K=%d/%s", k, arm.name), func(b *testing.B) {
				st, err := site.New(site.Config{
					SiteID: 1, Dim: 4, K: k, Epsilon: 0.1, FitEps: 8, Delta: 0.01,
					Seed: 1, ChunkSize: 64 * k, PruneTopM: arm.topM,
				})
				if err != nil {
					b.Fatal(err)
				}
				data := benchData(benchMixture(k, 4), 50_000, 2)
				defer func() {
					if st.Stats().Refits > 1 {
						b.Fatalf("stream refit %d times; the loop is no longer pure test-mode", st.Stats().Refits)
					}
				}()
				for _, x := range data[:2*st.ChunkSize()] {
					if _, err := st.Observe(x); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if _, err := st.Observe(data[i%len(data)]); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
			})
		}
	}
}

// BenchmarkSiteSteadyStatePruned is BenchmarkSiteSteadyState at K=16 with
// the pruned scorer active: the J_fit hot path must stay at 0 allocs/record
// with the k-d candidate walk and bound accumulators running. The name
// shares the BenchmarkSiteSteadyState prefix so the Makefile alloc-gate
// exercises both.
func BenchmarkSiteSteadyStatePruned(b *testing.B) {
	st, err := site.New(site.Config{
		SiteID: 1, Dim: 4, K: 16, Epsilon: 0.1, FitEps: 8, Delta: 0.01, Seed: 1,
		ChunkSize: 256,
	})
	if err != nil {
		b.Fatal(err)
	}
	data := benchData(benchMixture(16, 4), 50_000, 2)
	for _, x := range data[:2*st.ChunkSize()] {
		if _, err := st.Observe(x); err != nil {
			b.Fatal(err)
		}
	}
	idx := 0
	if avg := testing.AllocsPerRun(1000, func() {
		if _, err := st.Observe(data[idx%len(data)]); err != nil {
			b.Fatal(err)
		}
		idx++
	}); avg != 0 {
		b.Fatalf("pruned steady-state Observe allocates %v per record, want 0", avg)
	}
	if st.Stats().PruneHits == 0 {
		b.Fatal("pruned scorer never decided a verdict; benchmark is not exercising the pruned path")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := st.Observe(data[i%len(data)]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.N)/b.Elapsed().Seconds(), "records/s")
}

// benchPhaseMix builds a K-component mixture whose means sit on a circle
// rotated by phase — the multi-test benchmark cycles phases so chunks keep
// re-testing the CMax-deep archive.
func benchPhaseMix(k int, phase float64) *gaussian.Mixture {
	comps := make([]*gaussian.Component, k)
	ws := make([]float64, k)
	for j := range comps {
		ang := phase + 2*math.Pi*float64(j)/float64(k)
		comps[j] = gaussian.Spherical(linalg.Vector{6 * math.Cos(ang), 6 * math.Sin(ang)}, 0.4)
		ws[j] = float64(1 + j%3)
	}
	return gaussian.MustMixture(ws, comps)
}

// BenchmarkMultiTestDepth drives a regime-cycling stream that keeps the
// CMax archive full, so every chunk runs the multi-test deep before
// refitting. The rescan arm re-traverses the chunk for every probe and
// refit re-score; the shared arm (default) completes the chunk once and
// serves refit re-scores from the multi-test memo. stat-hits/chunk reports
// how many chunk traversals the memo absorbed.
func BenchmarkMultiTestDepth(b *testing.B) {
	rng := rand.New(rand.NewSource(5))
	var data []linalg.Vector
	for c := 0; c < 24; c++ {
		// A continuously rotating regime: every chunk is novel, so the site
		// tests the full CMax archive and then refits — the deepest
		// multi-test workload Algorithm 1 produces.
		data = append(data, benchPhaseMix(8, 0.45*float64(c)).SampleN(rng, 200)...)
	}
	run := func(b *testing.B, shared string) {
		var last site.Stats
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			st, err := site.New(site.Config{
				SiteID: 1, Dim: 2, K: 8, Epsilon: 0.5, Delta: 0.01, CMax: 4,
				Seed: 7, ChunkSize: 200, SharedChunkStats: shared,
				// Pruning off isolates the shared-workspace axis: probes
				// score exactly, so refit re-scores can hit the memo.
				PruneTopM: -1,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, x := range data {
				if _, err := st.Observe(x); err != nil {
					b.Fatal(err)
				}
			}
			last = st.Stats()
		}
		b.ReportMetric(float64(b.N)*float64(len(data))/b.Elapsed().Seconds(), "records/s")
		if last.Chunks > 0 {
			b.ReportMetric(float64(last.Tests)/float64(last.Chunks), "tests/chunk")
		}
		if last.Refits > 0 {
			b.ReportMetric(float64(last.StatCacheHits)/float64(last.Refits), "stat-hits/refit")
		}
	}
	b.Run("rescan", func(b *testing.B) { run(b, site.SharedStatsOff) })
	b.Run("shared", func(b *testing.B) { run(b, site.SharedStatsOn) })
}

// BenchmarkRemergeIncremental replays one deterministic model-update stream
// through the coordinator under the exhaustive per-update stability sweep
// ("exact") and the default dirty-group schedule ("on"). Both reach
// bit-identical trees (pinned by TestIncrementalRemergeMatchesExact); the
// updates/s gap is the work the dirty tracking avoids.
func BenchmarkRemergeIncremental(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	type upd struct {
		siteID, modelID, count int
		mix                    *gaussian.Mixture
	}
	var updates []upd
	for i := 0; i < 400; i++ {
		siteID := i%40 + 1
		k := rng.Intn(3) + 1
		comps := make([]*gaussian.Component, k)
		ws := make([]float64, k)
		for j := range comps {
			comps[j] = gaussian.Spherical(linalg.Vector{rng.NormFloat64() * 40}, 0.5+rng.Float64())
			ws[j] = rng.Float64() + 0.2
		}
		updates = append(updates, upd{siteID, i/40 + 1, rng.Intn(500) + 50, gaussian.MustMixture(ws, comps)})
	}
	run := func(b *testing.B, mode string) {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := coordinator.New(coordinator.Config{
				Dim:                1,
				Merge:              gaussian.MergeOptions{MomentOnly: true},
				IndexMinGroups:     4,
				IncrementalRemerge: mode,
			})
			if err != nil {
				b.Fatal(err)
			}
			for _, u := range updates {
				if err := c.HandleUpdate(site.Update{
					SiteID: u.siteID, ModelID: u.modelID, Kind: site.NewModel,
					Mixture: u.mix, Count: u.count,
				}); err != nil {
					b.Fatal(err)
				}
			}
		}
		b.ReportMetric(float64(b.N)*float64(len(updates))/b.Elapsed().Seconds(), "updates/s")
	}
	b.Run("exact", func(b *testing.B) { run(b, coordinator.RemergeExact) })
	b.Run("on", func(b *testing.B) { run(b, coordinator.RemergeOn) })
}
