package gaussian

import (
	"math"
	"math/rand"

	"cludistream/internal/linalg"
	"cludistream/internal/simplex"
)

// This file implements the actual merging of two Gaussian components into
// one (Section 5.2.1): the closed-form moment merge used as the starting
// point, the Monte-Carlo estimator of the paper's L1 accuracy-loss l(x),
// and the Nelder–Mead refinement that minimizes it.

// MomentMerge returns the weight, mean and covariance of the Gaussian that
// matches the first two moments of the pair (w_i·p_i + w_j·p_j):
//
//	w  = w_i + w_j
//	μ  = (w_i·μ_i + w_j·μ_j) / w
//	Σ  = (w_i·(Σ_i + μ_iμ_iᵀ) + w_j·(Σ_j + μ_jμ_jᵀ)) / w − μμᵀ
//
// This is the optimal single-Gaussian approximation under KL and serves as
// the simplex starting point.
func MomentMerge(wi float64, ci *Component, wj float64, cj *Component) (float64, linalg.Vector, *linalg.Sym) {
	w := wi + wj
	d := ci.Dim()
	mean := linalg.NewVector(d)
	mean.AXPYInPlace(wi/w, ci.Mean())
	mean.AXPYInPlace(wj/w, cj.Mean())

	cov := linalg.NewSym(d)
	cov.AddSym(wi/w, ci.Cov())
	cov.AddSym(wj/w, cj.Cov())
	di := ci.Mean().Sub(mean)
	dj := cj.Mean().Sub(mean)
	cov.AddOuterScaled(wi/w, di)
	cov.AddOuterScaled(wj/w, dj)
	return w, mean, cov
}

// L1Loss estimates the paper's accuracy-loss
//
//	l = ∫ |w_i·p(x|i) + w_j·p(x|j) − (w_i+w_j)·p(x|i′)| dx
//
// by importance sampling: x is drawn from the normalized parent pair
// q(x) = (w_i·p_i + w_j·p_j)/(w_i+w_j) and the integrand is averaged as
// |a(x) − b(x)|/q(x). The estimator is unbiased wherever q > 0, and the
// merged density i′ always lives between the parents, so coverage is good.
// nSamples around 256 gives a stable enough signal to steer Nelder–Mead.
func L1Loss(wi float64, ci *Component, wj float64, cj *Component, merged *Component, nSamples int, rng *rand.Rand) float64 {
	if nSamples <= 0 {
		nSamples = 256
	}
	return newMergeSampler(wi, ci, wj, cj, nSamples, rng).loss(merged)
}

// mergeSampler is the Monte-Carlo sample set behind L1Loss. Everything
// that depends only on the parent pair — the points x drawn from q, the
// pair mass a(x) = w_i·p_i(x) + w_j·p_j(x), the sampling density
// q(x) = a(x)/(w_i+w_j) and which samples are unusable — is computed once,
// so scoring a candidate i′ costs one panel solve and one pass. FitMerge's
// common random numbers make every objective evaluation draw the same
// points, so it builds one sampler per merge and scores each simplex
// vertex against it.
type mergeSampler struct {
	n int
	w float64 // w_i + w_j
	// pts holds the samples dimension-major: pts[i*n+s] is coordinate i of
	// sample s, the layout Cholesky.QuadFormPanel solves in.
	pts []float64
	a   []float64
	q   []float64
	// skip marks samples with q ≤ 0, ±Inf or NaN; they add nothing to the
	// sum but still count in the average.
	skip []bool
	// panel and quad are per-candidate scratch.
	panel []float64
	quad  []float64
}

// newMergeSampler draws n points from the normalized parent pair: for each
// sample one Float64 picks the parent, then that parent's SampleInto
// consumes d normals.
func newMergeSampler(wi float64, ci *Component, wj float64, cj *Component, n int, rng *rand.Rand) *mergeSampler {
	d := ci.Dim()
	w := wi + wj
	pi := wi / w
	s := &mergeSampler{
		n:     n,
		w:     w,
		pts:   make([]float64, d*n),
		a:     make([]float64, n),
		q:     make([]float64, n),
		skip:  make([]bool, n),
		panel: make([]float64, d*n),
		quad:  make([]float64, n),
	}
	scratch := make(linalg.Vector, 4*d)
	x, z, diff, half := scratch[:d], scratch[d:2*d], scratch[2*d:3*d], scratch[3*d:]
	for p := 0; p < n; p++ {
		if rng.Float64() < pi {
			ci.sampleScratch(rng, z, x)
		} else {
			cj.sampleScratch(rng, z, x)
		}
		for i, v := range x {
			s.pts[i*n+p] = v
		}
		a := wi*math.Exp(ci.LogProbScratch(x, diff, half)) + wj*math.Exp(cj.LogProbScratch(x, diff, half))
		q := a / w
		s.a[p], s.q[p] = a, q
		s.skip[p] = q <= 0 || math.IsInf(q, 0) || math.IsNaN(q)
	}
	return s
}

// loss returns the L1 accuracy-loss estimate of merged against the sample
// set, accumulating |a − b|/q in sample order.
func (s *mergeSampler) loss(merged *Component) float64 {
	n := s.n
	for i, mi := range merged.mean {
		row := s.panel[i*n : (i+1)*n]
		for p, v := range s.pts[i*n : (i+1)*n] {
			row[p] = v - mi
		}
	}
	merged.chol.QuadFormPanel(s.panel, n, n, s.quad)
	var acc float64
	for p, quad := range s.quad {
		if s.skip[p] {
			continue
		}
		b := s.w * math.Exp(merged.logNorm-0.5*quad)
		acc += math.Abs(s.a[p]-b) / s.q[p]
	}
	return acc / float64(n)
}

// MergeOptions tunes FitMerge. The zero value selects the defaults the
// experiments use.
type MergeOptions struct {
	// Samples is the size of the Monte-Carlo sample set every objective
	// evaluation is scored against (default 128).
	Samples int
	// MaxIter caps simplex iterations (default 25·d — merging is on the
	// coordinator's critical path, so the budget is deliberately tight).
	MaxIter int
	// Seed drives the common-random-numbers sample set shared by all
	// objective evaluations; fixed CRN makes the noisy objective coherent
	// for the simplex. Zero means seed 1.
	Seed int64
	// MomentOnly skips the simplex refinement and returns the moment merge
	// directly (the ablation of DESIGN.md §5).
	MomentOnly bool
}

// FitMerge merges components i and j (with weights wi, wj) into a single
// component i′ by minimizing the L1 accuracy-loss with downhill simplex,
// starting from the moment merge. It returns the merged weight and
// component. The simplex optimizes the mean and the log of the covariance
// diagonal scale factors — a (2d)-parameter search that keeps Σ positive
// definite by construction while still letting the fit trade variance
// against position; full-matrix search would need d(d+3)/2 parameters for
// marginal gain.
func FitMerge(wi float64, ci *Component, wj float64, cj *Component, opt MergeOptions) (float64, *Component) {
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

	// Common random numbers: every evaluation scores against the same
	// sample set, drawn once from the seed.
	crn := newMergeSampler(wi, ci, wj, cj, opt.Samples, rand.New(rand.NewSource(seed)))

	// Parameter vector: [μ_1..μ_d, log s_1..log s_d] where Σ′ has entries
	// Σ′[a][b] = s_a·s_b·Σ0[a][b] — a diagonal congruence of the moment
	// covariance, which preserves positive definiteness for any s > 0.
	// NewComponent copies what it keeps, so one covariance buffer serves
	// every evaluation.
	cov := linalg.NewSym(d)
	obj := func(p []float64) float64 {
		mean := linalg.Vector(p[:d])
		for a := 0; a < d; a++ {
			sa := math.Exp(p[d+a])
			// The merged covariance may shrink or grow only moderately
			// relative to the moment match: merge candidates are close (the
			// coordinator gates on M_merge), and an unbounded scale lets
			// the simplex chase Monte-Carlo noise into degenerate shapes.
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
		return crn.loss(cand)
	}

	p0 := make([]float64, 2*d)
	copy(p0, mean0)
	res, err := simplex.Minimize(obj, p0, simplex.Options{MaxIter: opt.MaxIter, Step: 0.05, TolF: 1e-6, TolX: 1e-6})
	if err != nil {
		return w, base
	}
	// Only accept the refined parameters if they actually improve on the
	// moment merge under the same CRN sample set.
	if res.F >= crn.loss(base) {
		return w, base
	}
	mean := linalg.Vector(res.X[:d]).Clone()
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
