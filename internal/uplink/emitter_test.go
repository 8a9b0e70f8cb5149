package uplink

import (
	"math/rand"
	"testing"

	"cludistream/internal/coordinator"
	"cludistream/internal/durable"
	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/site"
)

// FuzzEmitter feeds a sliding-window site a fuzzed sequence of regimes,
// one chunk each, and applies every emitted message to a coordinator. The
// upgrade rule must keep the coordinator accepting all of them — no
// weight update or deletion for a model it already dropped — and the
// emitter's outstanding mirror must match the coordinator's counters.
func FuzzEmitter(f *testing.F) {
	f.Add([]byte{1, 0, 0, 1, 1, 0, 0})
	f.Add([]byte{0, 0, 1, 0, 2, 0, 1})
	f.Add([]byte{2, 0, 1, 2, 0, 0, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		if len(data) > 13 {
			data = data[:13]
		}
		const chunk = 50
		st, err := site.New(site.Config{
			SiteID: 1, Dim: 1, K: 2, Epsilon: 0.1, FitEps: 0.8, Delta: 0.01, CMax: 4,
			Seed: 1, ChunkSize: chunk, EmitFitWeightUpdates: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		em, err := NewEmitter(st, 1+int(data[0]%3))
		if err != nil {
			t.Fatal(err)
		}
		coord, err := coordinator.New(coordinator.Config{Dim: 1, Merge: gaussian.MergeOptions{MomentOnly: true}})
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(1))
		for _, b := range data[1:] {
			mean := 30 * float64(int(b%3)-1)
			mix := gaussian.MustMixture([]float64{0.5, 0.5}, []*gaussian.Component{
				gaussian.Spherical(linalg.Vector{mean - 2}, 0.5),
				gaussian.Spherical(linalg.Vector{mean + 2}, 0.5),
			})
			for i := 0; i < chunk; i++ {
				msgs, err := em.Observe(mix.Sample(rng))
				if err != nil {
					t.Fatal(err)
				}
				for _, msg := range msgs {
					if err := durable.Apply(coord, msg); err != nil {
						t.Fatalf("coordinator refused %v for model %d: %v", msg.Kind, msg.ModelID, err)
					}
				}
			}
		}
		live := 0
		for _, n := range em.outstanding {
			if n > 0 {
				live++
			}
		}
		mw := coord.ModelWeights()
		if len(mw) != live {
			t.Fatalf("coordinator holds %d models, mirror %d live (%v)", len(mw), live, em.outstanding)
		}
		for _, w := range mw {
			if em.outstanding[w.ModelID] != w.Counter {
				t.Fatalf("model %d: coordinator counter %d, mirror %d", w.ModelID, w.Counter, em.outstanding[w.ModelID])
			}
		}
	})
}
