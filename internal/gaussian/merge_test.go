package gaussian

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"cludistream/internal/linalg"
	"cludistream/internal/simplex"
)

func TestMomentMergeIdenticalComponents(t *testing.T) {
	c := Spherical(linalg.Vector{1, 2}, 2)
	w, mean, cov := MomentMerge(0.3, c, 0.7, c)
	if math.Abs(w-1) > 1e-15 {
		t.Fatalf("w = %v", w)
	}
	if !mean.Equal(linalg.Vector{1, 2}, 1e-12) {
		t.Fatalf("mean = %v", mean)
	}
	if !cov.Equal(c.Cov(), 1e-12) {
		t.Fatalf("cov diag = %v", cov.Diag())
	}
}

func TestMomentMergeKnown1D(t *testing.T) {
	// Equal weights, unit variances, means ±1: merged μ=0,
	// σ² = 1 + 1 = mean of (σ²+μ²) − μ̄² = (1+1+1+1)/2 − 0 = 2.
	a := Spherical(linalg.Vector{-1}, 1)
	b := Spherical(linalg.Vector{1}, 1)
	w, mean, cov := MomentMerge(0.5, a, 0.5, b)
	if w != 1 || math.Abs(mean[0]) > 1e-15 {
		t.Fatalf("w=%v mean=%v", w, mean)
	}
	if math.Abs(cov.At(0, 0)-2) > 1e-12 {
		t.Fatalf("var = %v, want 2", cov.At(0, 0))
	}
}

func TestMomentMergeMatchesMixtureMoments(t *testing.T) {
	rng := rand.New(rand.NewSource(61))
	a, b := randComponent(rng, 3), randComponent(rng, 3)
	wi, wj := 0.3, 0.5
	_, mean, cov := MomentMerge(wi, a, wj, b)
	// Compare with Moments() of the normalized 2-component mixture.
	m := MustMixture([]float64{wi, wj}, []*Component{a, b})
	mMean, mCov := m.Moments()
	if !mean.Equal(mMean, 1e-12) {
		t.Fatalf("mean %v vs %v", mean, mMean)
	}
	if !cov.Equal(mCov, 1e-10) {
		t.Fatalf("cov mismatch")
	}
}

func TestL1LossZeroForPerfectMerge(t *testing.T) {
	// Merging a component with itself: the moment merge is exact, so the
	// L1 loss must be ~0.
	rng := rand.New(rand.NewSource(62))
	c := Spherical(linalg.Vector{0, 0}, 1)
	_, mean, cov := MomentMerge(0.5, c, 0.5, c)
	merged := MustComponent(mean, cov)
	loss := L1Loss(0.5, c, 0.5, c, merged, 512, rng)
	if loss > 1e-10 {
		t.Fatalf("L1 loss for identity merge = %v", loss)
	}
}

func TestL1LossPositiveForBadMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(63))
	a := Spherical(linalg.Vector{-4}, 1)
	b := Spherical(linalg.Vector{4}, 1)
	good := func() *Component {
		_, mean, cov := MomentMerge(0.5, a, 0.5, b)
		return MustComponent(mean, cov)
	}()
	bad := Spherical(linalg.Vector{50}, 1) // nowhere near the mass
	lGood := L1Loss(0.5, a, 0.5, b, good, 512, rng)
	lBad := L1Loss(0.5, a, 0.5, b, bad, 512, rand.New(rand.NewSource(63)))
	if lGood >= lBad {
		t.Fatalf("good merge loss %v should beat bad %v", lGood, lBad)
	}
	// Totally wrong merged density: |a − b| ≈ a everywhere mass lives, so
	// loss ≈ total weight = 1.
	if math.Abs(lBad-1) > 0.05 {
		t.Fatalf("bad merge loss = %v, want ≈ 1", lBad)
	}
}

func TestL1LossBounded(t *testing.T) {
	// l(x) = ∫|a−b| ≤ ∫a + ∫b = 2w. Monte-Carlo noise stays within ~10%.
	rng := rand.New(rand.NewSource(64))
	for i := 0; i < 10; i++ {
		a, b := randComponent(rng, 2), randComponent(rng, 2)
		merged := randComponent(rng, 2)
		loss := L1Loss(0.5, a, 0.5, b, merged, 512, rng)
		if loss < 0 || loss > 2.2 {
			t.Fatalf("loss out of bounds: %v", loss)
		}
	}
}

func TestFitMergeImprovesOrMatchesMoment(t *testing.T) {
	rng := rand.New(rand.NewSource(65))
	a := Spherical(linalg.Vector{-2, 0}, 1)
	b := Spherical(linalg.Vector{2, 0}, 1)
	w, fitted := FitMerge(0.5, a, 0.5, b, MergeOptions{Samples: 256, Seed: 7})
	if math.Abs(w-1) > 1e-12 {
		t.Fatalf("w = %v", w)
	}
	_, mean0, cov0 := MomentMerge(0.5, a, 0.5, b)
	base := MustComponent(mean0, cov0)
	crn := func(c *Component) float64 {
		return L1Loss(0.5, a, 0.5, b, c, 256, rand.New(rand.NewSource(7)))
	}
	if crn(fitted) > crn(base)+1e-12 {
		t.Fatalf("fitted loss %v worse than moment %v", crn(fitted), crn(base))
	}
	_ = rng
}

func TestFitMergeMomentOnly(t *testing.T) {
	a := Spherical(linalg.Vector{-1}, 1)
	b := Spherical(linalg.Vector{1}, 1)
	w, c := FitMerge(0.4, a, 0.6, b, MergeOptions{MomentOnly: true})
	_, mean, cov := MomentMerge(0.4, a, 0.6, b)
	want := MustComponent(mean, cov)
	if math.Abs(w-1) > 1e-12 || !c.Equal(want, 1e-12) {
		t.Fatal("MomentOnly did not return the moment merge")
	}
}

func TestFitMergeDeterministic(t *testing.T) {
	a := Spherical(linalg.Vector{-2, 1}, 1.5)
	b := Spherical(linalg.Vector{2, -1}, 0.8)
	_, c1 := FitMerge(0.5, a, 0.5, b, MergeOptions{Samples: 128, Seed: 3})
	_, c2 := FitMerge(0.5, a, 0.5, b, MergeOptions{Samples: 128, Seed: 3})
	if !c1.Equal(c2, 0) {
		t.Fatal("FitMerge not deterministic for fixed seed")
	}
}

func TestFitMergePreservesTotalWeight(t *testing.T) {
	rng := rand.New(rand.NewSource(66))
	for i := 0; i < 5; i++ {
		a, b := randComponent(rng, 2), randComponent(rng, 2)
		wi, wj := rng.Float64()+0.1, rng.Float64()+0.1
		w, merged := FitMerge(wi, a, wj, b, MergeOptions{Samples: 64, Seed: int64(i + 1), MaxIter: 40})
		if math.Abs(w-(wi+wj)) > 1e-12 {
			t.Fatalf("weight not preserved: %v vs %v", w, wi+wj)
		}
		if merged.Dim() != 2 {
			t.Fatal("dimension changed")
		}
	}
}

// oracleL1Loss is the per-evaluation estimator FitMerge used before the
// sample set was cached: draw, evaluate both parents and the candidate,
// and accumulate, one sample at a time. It is the reference the sampler
// must match bit for bit.
func oracleL1Loss(wi float64, ci *Component, wj float64, cj *Component, merged *Component, nSamples int, rng *rand.Rand) float64 {
	if nSamples <= 0 {
		nSamples = 256
	}
	w := wi + wj
	pi := wi / w
	x := linalg.NewVector(ci.Dim())
	var acc float64
	for s := 0; s < nSamples; s++ {
		if rng.Float64() < pi {
			ci.SampleInto(rng, x)
		} else {
			cj.SampleInto(rng, x)
		}
		a := wi*ci.Prob(x) + wj*cj.Prob(x)
		b := w * merged.Prob(x)
		q := a / w
		if q <= 0 || math.IsInf(q, 0) || math.IsNaN(q) {
			continue
		}
		acc += math.Abs(a-b) / q
	}
	return acc / float64(nSamples)
}

// oracleFitMerge is FitMerge with the objective re-seeding a fresh
// rand.Source and re-drawing the whole sample set on every evaluation.
func oracleFitMerge(wi float64, ci *Component, wj float64, cj *Component, opt MergeOptions) (float64, *Component) {
	w, mean0, cov0 := MomentMerge(wi, ci, wj, cj)
	base := MustComponent(mean0, cov0)
	if opt.MomentOnly {
		return w, base
	}
	if opt.Samples <= 0 {
		opt.Samples = 128
	}
	seed := opt.Seed
	if seed == 0 {
		seed = 1
	}
	d := ci.Dim()
	if opt.MaxIter <= 0 {
		opt.MaxIter = 25 * d
	}
	obj := func(p []float64) float64 {
		mean := linalg.Vector(p[:d])
		cov := linalg.NewSym(d)
		for a := 0; a < d; a++ {
			sa := math.Exp(p[d+a])
			if sa > 2 || sa < 0.5 {
				return math.Inf(1)
			}
			for b := 0; b <= a; b++ {
				sb := math.Exp(p[d+b])
				cov.Set(a, b, sa*sb*cov0.At(a, b))
			}
		}
		cand, err := NewComponent(mean, cov, 0)
		if err != nil {
			return math.Inf(1)
		}
		return oracleL1Loss(wi, ci, wj, cj, cand, opt.Samples, rand.New(rand.NewSource(seed)))
	}
	p0 := make([]float64, 2*d)
	copy(p0, mean0)
	res, err := simplex.Minimize(obj, p0, simplex.Options{MaxIter: opt.MaxIter, Step: 0.05, TolF: 1e-6, TolX: 1e-6})
	if err != nil {
		return w, base
	}
	baseLoss := oracleL1Loss(wi, ci, wj, cj, base, opt.Samples, rand.New(rand.NewSource(seed)))
	if res.F >= baseLoss {
		return w, base
	}
	mean := linalg.Vector(res.X[:d]).Clone()
	cov := linalg.NewSym(d)
	for a := 0; a < d; a++ {
		sa := math.Exp(res.X[d+a])
		for b := 0; b <= a; b++ {
			sb := math.Exp(res.X[d+b])
			cov.Set(a, b, sa*sb*cov0.At(a, b))
		}
	}
	merged, err2 := NewComponent(mean, cov, 0)
	if err2 != nil {
		return w, base
	}
	return w, merged
}

// Merge-pair regimes the parity property draws from.
const (
	regimeClose        = iota // overlapping parents: the coordinator's case
	regimeFar                 // parents 10³ apart, far beyond their spread
	regimeExtreme             // densities at the float64 overflow/underflow edge
	regimeNearSingular        // rank-1 covariances: the moment covariance may need RepairPSD
	numRegimes
)

// mergeCase is one random FitMerge input for testing/quick.
type mergeCase struct {
	regime int
	wi, wj float64
	ci, cj *Component
	opt    MergeOptions
}

func (mergeCase) Generate(r *rand.Rand, _ int) reflect.Value {
	for {
		mc := mergeCase{
			regime: r.Intn(numRegimes),
			wi:     math.Pow(10, -3+8*r.Float64()),
			wj:     math.Pow(10, -3+8*r.Float64()),
			opt: MergeOptions{
				Samples: r.Intn(200) - 4, // ≤ 0 selects the default
				Seed:    r.Int63n(2000) - 1000,
				MaxIter: r.Intn(40) - 4,
			},
		}
		d := 1 + r.Intn(8)
		switch mc.regime {
		case regimeClose:
			mc.ci, mc.cj = randComponent(r, d), randComponent(r, d)
		case regimeFar:
			mc.ci = randComponent(r, d)
			far := randVec(r, d)
			far.ScaleInPlace(1e3 / math.Sqrt(far.Dot(far)))
			far.AddInPlace(mc.ci.Mean())
			mc.cj = Spherical(far, 0.5+r.Float64())
		case regimeExtreme:
			// Pick each parent's log-density at its mean (logNorm) near the
			// float64 overflow (709.8) or underflow (−745) edge, or plain.
			d = 3 + r.Intn(6)
			spherical := func() *Component {
				logNorm := 0.0
				switch r.Intn(3) {
				case 0:
					logNorm = 690 + 90*r.Float64()
				case 1:
					logNorm = -800 + 100*r.Float64()
				}
				return Spherical(randVec(r, d), math.Exp(-(2*logNorm/float64(d) + log2Pi)))
			}
			mc.ci, mc.cj = spherical(), spherical()
		case regimeNearSingular:
			d = 2 + r.Intn(3)
			v := randVec(r, d)
			v.ScaleInPlace(math.Pow(10, 2+3*r.Float64()))
			ri, rj := linalg.NewSym(d), linalg.NewSym(d)
			ri.AddOuterScaled(1, v)
			rj.AddOuterScaled(1+r.Float64(), v)
			mi := randVec(r, d)
			mj := mi.Clone()
			mj.AXPYInPlace(r.NormFloat64(), v)
			var err error
			if mc.ci, err = NewComponent(mi, ri, 0); err != nil {
				continue
			}
			if mc.cj, err = NewComponent(mj, rj, 0); err != nil {
				continue
			}
		}
		// FitMerge panics (by design) if even the repaired moment merge is
		// not factorable; such pairs are outside its contract.
		_, mean0, cov0 := MomentMerge(mc.wi, mc.ci, mc.wj, mc.cj)
		if _, err := NewComponent(mean0, cov0, 0); err != nil {
			continue
		}
		return reflect.ValueOf(mc)
	}
}

func sameComponentBits(a, b *Component) bool {
	if a.Dim() != b.Dim() || math.Float64bits(a.LogDet()) != math.Float64bits(b.LogDet()) {
		return false
	}
	for i, v := range a.Mean() {
		if math.Float64bits(v) != math.Float64bits(b.Mean()[i]) {
			return false
		}
	}
	for i := 0; i < a.Dim(); i++ {
		for j := 0; j <= i; j++ {
			if math.Float64bits(a.Cov().At(i, j)) != math.Float64bits(b.Cov().At(i, j)) {
				return false
			}
		}
	}
	return true
}

// TestFitMergeMatchesOracleQuick pins the cached sample set to the
// per-evaluation estimator bit for bit: FitMerge's weight, mean,
// covariance and log-determinant, and L1Loss on the result, across
// d = 1–8, weights 1e-3–1e5, varied Samples/Seed/MaxIter, and pairs that
// are far apart, numerically extreme, or near-singular. It also checks
// that the extreme and near-singular regimes really reach the q-skip and
// the RepairPSD path, so the property cannot silently stop covering them.
func TestFitMergeMatchesOracleQuick(t *testing.T) {
	var partialSkips, repairs int
	prop := func(mc mergeCase) bool {
		w, got := FitMerge(mc.wi, mc.ci, mc.wj, mc.cj, mc.opt)
		ow, want := oracleFitMerge(mc.wi, mc.ci, mc.wj, mc.cj, mc.opt)
		if math.Float64bits(w) != math.Float64bits(ow) || !sameComponentBits(got, want) {
			t.Logf("regime %d d=%d opt=%+v: FitMerge %v vs oracle %v", mc.regime, mc.ci.Dim(), mc.opt, got, want)
			return false
		}
		seed := mc.opt.Seed
		l := L1Loss(mc.wi, mc.ci, mc.wj, mc.cj, got, mc.opt.Samples, rand.New(rand.NewSource(seed)))
		ol := oracleL1Loss(mc.wi, mc.ci, mc.wj, mc.cj, want, mc.opt.Samples, rand.New(rand.NewSource(seed)))
		if math.Float64bits(l) != math.Float64bits(ol) {
			t.Logf("regime %d: L1Loss %v vs oracle %v", mc.regime, l, ol)
			return false
		}

		n := mc.opt.Samples
		if n <= 0 {
			n = 256
		}
		s := newMergeSampler(mc.wi, mc.ci, mc.wj, mc.cj, n, rand.New(rand.NewSource(seed)))
		skipped := 0
		for _, sk := range s.skip {
			if sk {
				skipped++
			}
		}
		if skipped > 0 && skipped < n {
			partialSkips++
		}
		_, _, cov0 := MomentMerge(mc.wi, mc.ci, mc.wj, mc.cj)
		if _, err := linalg.CholeskyDecompose(cov0); err != nil {
			repairs++
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 160, Rand: rand.New(rand.NewSource(12))}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
	if partialSkips == 0 {
		t.Fatal("no case mixed skipped and kept samples; the q ≤ 0/Inf/NaN skip is not covered")
	}
	if repairs == 0 {
		t.Fatal("no case took the RepairPSD path for the moment covariance")
	}
	t.Logf("cases with a partial q-skip: %d, with a repaired moment covariance: %d", partialSkips, repairs)
}

// TestFitMergeAllocGate bounds the simplex merge's allocations at d=4 (the
// BenchmarkFitMerge pair). The sample set is built once per merge without
// per-sample allocations; what remains is the candidate components the
// objective constructs and the simplex's own bookkeeping.
func TestFitMergeAllocGate(t *testing.T) {
	a := Spherical(linalg.Vector{-1, 0, 0, 0}, 1)
	c := Spherical(linalg.Vector{1, 0.5, 0, 0}, 1.5)
	const limit = 3000
	allocs := testing.AllocsPerRun(20, func() {
		_, _ = FitMerge(0.5, a, 0.5, c, MergeOptions{Seed: 1})
	})
	if allocs > limit {
		t.Fatalf("FitMerge at d=4: %.0f allocs/op, gate is %d", allocs, limit)
	}
	t.Logf("FitMerge at d=4: %.0f allocs/op", allocs)
}
