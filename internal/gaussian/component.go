// Package gaussian implements the probabilistic substrate of CluDistream:
// multivariate Gaussian components, Gaussian mixture models (Section 3.1 of
// the paper), posterior membership probabilities (Eq. 2), the average
// log-likelihood quality measure (Definition 1), and the coordinator-side
// merge/split criteria M_merge, M_split and M_remerge (Eqs. 5–6) together
// with SMEM's J_merge that they approximate.
package gaussian

import (
	"errors"
	"fmt"
	"math"
	"math/rand"

	"cludistream/internal/linalg"
)

// log(2π), the constant in every Gaussian log-density.
const log2Pi = 1.8378770664093453

// ErrSingular is returned when a covariance matrix cannot be factored even
// after PSD repair.
var ErrSingular = errors.New("gaussian: singular covariance")

// Component is a single d-dimensional Gaussian N(μ, Σ) with a cached
// Cholesky factor of Σ. The factor makes log-densities and Mahalanobis
// distances O(d²) after an O(d³) one-time cost; the inverse needed by the
// merge criteria is computed lazily and cached as well.
//
// A Component is immutable after construction: the EM and coordinator code
// always build fresh components rather than mutate, so cached factors can
// never go stale.
type Component struct {
	mean linalg.Vector
	cov  *linalg.Sym
	chol *linalg.Cholesky
	inv  *linalg.Sym // lazily computed Σ⁻¹
	// logNorm = -(d/2)·log(2π) - (1/2)·log|Σ|, the log normalizing constant.
	logNorm float64
}

// NewComponent builds a Gaussian from a mean and covariance. The covariance
// must be symmetric positive definite; if it is not (a degenerate chunk can
// produce one), it is repaired by flooring its eigenvalues at minVar before
// giving up. Pass minVar <= 0 for a default floor of 1e-9.
func NewComponent(mean linalg.Vector, cov *linalg.Sym, minVar float64) (*Component, error) {
	if len(mean) != cov.Order() {
		return nil, fmt.Errorf("gaussian: mean dim %d != cov order %d", len(mean), cov.Order())
	}
	if !mean.IsFinite() {
		return nil, fmt.Errorf("gaussian: non-finite mean %v", trunc(mean))
	}
	if !cov.IsFinite() {
		return nil, fmt.Errorf("gaussian: non-finite covariance")
	}
	if minVar <= 0 {
		minVar = 1e-9
	}
	chol, err := linalg.CholeskyDecompose(cov)
	if err != nil {
		cov = linalg.RepairPSD(cov, minVar)
		chol, err = linalg.CholeskyDecompose(cov)
		if err != nil {
			return nil, ErrSingular
		}
	}
	d := float64(len(mean))
	return &Component{
		mean:    mean.Clone(),
		cov:     cov.Clone(),
		chol:    chol,
		logNorm: -0.5*d*log2Pi - 0.5*chol.LogDet(),
	}, nil
}

// MustComponent is NewComponent that panics on error; for tests and
// literals with known-good covariances.
func MustComponent(mean linalg.Vector, cov *linalg.Sym) *Component {
	c, err := NewComponent(mean, cov, 0)
	if err != nil {
		panic(err)
	}
	return c
}

// Spherical returns N(mean, variance·I).
func Spherical(mean linalg.Vector, variance float64) *Component {
	cov := linalg.NewSym(len(mean))
	for i := range mean {
		cov.Set(i, i, variance)
	}
	return MustComponent(mean, cov)
}

// Dim returns the dimensionality d.
func (c *Component) Dim() int { return len(c.mean) }

// Mean returns the mean vector. The returned slice is owned by the
// component and must not be mutated.
func (c *Component) Mean() linalg.Vector { return c.mean }

// Cov returns the covariance matrix, owned by the component.
func (c *Component) Cov() *linalg.Sym { return c.cov }

// LogDet returns log|Σ|.
func (c *Component) LogDet() float64 { return c.chol.LogDet() }

// CovInverse returns Σ⁻¹, computing and caching it on first use.
func (c *Component) CovInverse() *linalg.Sym {
	if c.inv == nil {
		c.inv = c.chol.Inverse()
	}
	return c.inv
}

// LogProb returns log p(x | this component) = logNorm - ½·Mahalanobis²(x).
func (c *Component) LogProb(x linalg.Vector) float64 {
	return c.logNorm - 0.5*c.MahalanobisSq(x)
}

// LogProbScratch is LogProb with caller-provided scratch vectors of
// dimension d, for allocation-free hot loops (the E-step calls this once
// per record per component).
func (c *Component) LogProbScratch(x, diff, half linalg.Vector) float64 {
	x.SubInto(c.mean, diff)
	return c.logNorm - 0.5*c.chol.QuadFormScratch(diff, half)
}

// Prob returns the density p(x | component).
func (c *Component) Prob(x linalg.Vector) float64 {
	return math.Exp(c.LogProb(x))
}

// MahalanobisSq returns (x-μ)ᵀ Σ⁻¹ (x-μ).
func (c *Component) MahalanobisSq(x linalg.Vector) float64 {
	diff := x.Sub(c.mean)
	return c.chol.QuadForm(diff)
}

// SampleInto draws one sample x = μ + L·z (z standard normal) into dst.
func (c *Component) SampleInto(rng *rand.Rand, dst linalg.Vector) {
	c.sampleScratch(rng, make(linalg.Vector, c.Dim()), dst)
}

// sampleScratch is SampleInto with a caller-provided z of dimension d, for
// allocation-free sampling loops. It consumes the same d normals.
func (c *Component) sampleScratch(rng *rand.Rand, z, dst linalg.Vector) {
	for i := range z {
		z[i] = rng.NormFloat64()
	}
	c.chol.MulLVecInto(z, dst)
	dst.AddInPlace(c.mean)
}

// Sample draws one fresh sample.
func (c *Component) Sample(rng *rand.Rand) linalg.Vector {
	dst := linalg.NewVector(c.Dim())
	c.SampleInto(rng, dst)
	return dst
}

// Equal reports whether two components have means and covariances within
// tol of each other.
func (c *Component) Equal(o *Component, tol float64) bool {
	return c.mean.Equal(o.mean, tol) && c.cov.Equal(o.cov, tol)
}

// String renders a compact description for logs and error messages.
func (c *Component) String() string {
	return fmt.Sprintf("N(μ=%v, diag(Σ)=%v)", trunc(c.mean), trunc(c.cov.Diag()))
}

func trunc(v linalg.Vector) linalg.Vector {
	if len(v) <= 4 {
		return v
	}
	return v[:4]
}
