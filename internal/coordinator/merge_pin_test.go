package coordinator

import (
	"encoding/binary"
	"hash/fnv"
	"math"
	"math/rand"
	"testing"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

// goldenSimplexFingerprint is the FNV-1a fingerprint of the coordinator
// state TestSimplexMergeGolden reaches. Any change to the production merge
// (sampling order, estimator arithmetic, simplex steps, acceptance rule)
// moves it; a change that is meant to be bit-identical must not.
const goldenSimplexFingerprint uint64 = 0x2089a78bc227e422

// TestSimplexMergeGolden pins the merge path the daemons actually run: the
// default MergeOptions (Nelder–Mead on the Monte-Carlo L1 loss), not the
// MomentOnly ablation the other coordinator tests use. A fixed sequence of
// new models, weight updates and deletions around three drifting cluster
// centres forces merges, splits and re-merges; the resulting groups and
// global mixture are fingerprinted down to the last bit.
func TestSimplexMergeGolden(t *testing.T) {
	c, err := New(Config{Dim: 2})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(20070415))
	centres := []linalg.Vector{{0, 0}, {6, 1}, {-3, 7}}
	nextModel := map[int]int{}
	var models []liveModel
	for op := 0; op < 24; op++ {
		roll := rng.Intn(10)
		switch {
		case roll <= 4 || len(models) == 0:
			siteID := rng.Intn(3) + 1
			nextModel[siteID]++
			k := rng.Intn(2) + 1
			comps := make([]*gaussian.Component, k)
			ws := make([]float64, k)
			for j := range comps {
				ctr := centres[rng.Intn(len(centres))]
				// The centres drift with op, so late members pull group
				// representatives away from early ones.
				drift := 0.04 * float64(op)
				mean := linalg.Vector{ctr[0] + drift + rng.NormFloat64(), ctr[1] - drift + rng.NormFloat64()}
				cov := linalg.NewSym(2)
				cov.Set(0, 0, 0.5+rng.Float64())
				cov.Set(1, 1, 0.5+rng.Float64())
				cov.Set(1, 0, 0.3*(rng.Float64()-0.5))
				comps[j] = gaussian.MustComponent(mean, cov)
				ws[j] = rng.Float64() + 0.2
			}
			count := rng.Intn(2000) + 50
			u := site.Update{SiteID: siteID, ModelID: nextModel[siteID], Kind: site.NewModel,
				Mixture: gaussian.MustMixture(ws, comps), Count: count}
			if err := c.HandleUpdate(u); err != nil {
				t.Fatalf("op %d new model: %v", op, err)
			}
			models = append(models, liveModel{siteID, nextModel[siteID], count})
		case roll <= 7:
			i := rng.Intn(len(models))
			add := rng.Intn(3000) + 1
			u := site.Update{SiteID: models[i].siteID, ModelID: models[i].modelID, Kind: site.WeightUpdate, Count: add}
			if err := c.HandleUpdate(u); err != nil {
				t.Fatalf("op %d weight update: %v", op, err)
			}
			models[i].counter += add
		default:
			i := rng.Intn(len(models))
			del := rng.Intn(models[i].counter+200) + 1
			if err := c.HandleDeletion(models[i].siteID, models[i].modelID, del); err != nil {
				t.Fatalf("op %d deletion: %v", op, err)
			}
			models[i].counter -= del
			if models[i].counter <= 0 {
				models = append(models[:i], models[i+1:]...)
			}
		}
	}
	checkInvariants(t, c)
	st := c.Stats()
	if st.Splits == 0 || st.Deletions == 0 || st.WeightUpdates == 0 {
		t.Fatalf("sequence no longer exercises the split path: %+v", st)
	}
	if got := simplexStateFingerprint(c); got != goldenSimplexFingerprint {
		t.Fatalf("simplex-merge state fingerprint = %#x, want %#x (stats %+v)", got, goldenSimplexFingerprint, st)
	}
}

// simplexStateFingerprint hashes the exact bits of every group (id,
// weight, member keys, representative mean, covariance and log-determinant)
// followed by the global mixture's weights and components.
func simplexStateFingerprint(c *Coordinator) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	u64 := func(v uint64) {
		binary.LittleEndian.PutUint64(buf[:], v)
		h.Write(buf[:])
	}
	f64 := func(v float64) { u64(math.Float64bits(v)) }
	comp := func(g *gaussian.Component) {
		for _, v := range g.Mean() {
			f64(v)
		}
		cov := g.Cov()
		for i := 0; i < cov.Order(); i++ {
			for j := 0; j <= i; j++ {
				f64(cov.At(i, j))
			}
		}
		f64(g.LogDet())
	}
	for _, g := range c.Groups() {
		u64(uint64(g.ID()))
		f64(g.Weight())
		for _, k := range g.MemberKeys() {
			u64(uint64(k.SiteID))
			u64(uint64(k.ModelID))
			u64(uint64(k.Comp))
		}
		comp(g.Representative())
	}
	gm := c.GlobalMixture()
	for j := 0; j < gm.K(); j++ {
		f64(gm.Weight(j))
		comp(gm.Component(j))
	}
	return h.Sum64()
}
