package main

import (
	"fmt"
	"math/rand"

	"cludistream/internal/gaussian"
	"cludistream/internal/linalg"
	"cludistream/internal/stream"
)

// The paper's site setting (Section 8): δ=0.01 and ε=0.02 give the
// Theorem-1 chunk size M=1567 at d=4; the J_fit threshold is calibrated
// to 0.25 (EXPERIMENTS.md) and c_max is the paper's 4.
const (
	dim     = 4
	delta   = 0.01
	epsilon = 0.02
	fitEps  = 0.25
	cMax    = 4
	chunkM  = 1567
)

// heldOutOffset separates the held-out seed from the workload seed: the
// avg_nll sample of site i is drawn with seed + heldOutOffset + i, so it
// never shares a random stream with the records the sites learned from.
const heldOutOffset = 1_000_003

// heldOutN is the held-out sample size per site.
const heldOutN = 4000

// siteSeed is site i's EM seed. It is part of the program's
// configuration, not of its input, so it does not follow --seed.
func siteSeed(i int) int64 { return int64(i + 1) }

// scenarioSeed fixes site i's regime parameters and regime schedule. A
// workload is a fixed distribution family; --seed draws the records (and
// the held-out and query samples) from it. Keeping the regimes fixed is
// what lets runs with different seeds measure the same work: with the
// regimes drawn from --seed too, the number of regime changes and the
// merged model's size vary from seed to seed by more than any bound a
// regression check could use.
func scenarioSeed(i int) int64 { return 7919 * int64(i+1) }

// siteInput is one site's pre-generated stream plus what avg_nll needs:
// the regime the stream ended in and a held-out sample drawn from it.
type siteInput struct {
	recs    []linalg.Vector
	final   *gaussian.Mixture
	heldOut []linalg.Vector
}

// genStream draws n records of the evolving-Gaussian stream for site i.
// The regimes come from the stream package's generator, seeded with the
// site's scenario seed: a new regime is drawn at a RegimeLen boundary
// with probability Pd. The records are sampled from the active regime
// with the workload seed. Records share one backing array so a long
// stream costs one allocation.
func genStream(cfg stream.SyntheticConfig, n int, seed int64, i int) (siteInput, error) {
	// RegimeLen 1 and Pd 1 make every Next draw a fresh regime, which
	// turns the generator into a source of regime parameters.
	regimes := cfg
	regimes.Seed, regimes.RegimeLen, regimes.Pd = scenarioSeed(i), 1, 1
	g, err := stream.NewSynthetic(regimes)
	if err != nil {
		return siteInput{}, err
	}
	g.Next() // the generator redraws from its second record on
	if cfg.RegimeLen <= 0 {
		cfg.RegimeLen = 2000
	}
	sched := rand.New(rand.NewSource(scenarioSeed(i) + 1))
	rng := rand.New(rand.NewSource(seed*1_000_033 + int64(i)))
	cur := g.CurrentMixture()
	flat := make([]float64, n*cfg.Dim)
	recs := make([]linalg.Vector, n)
	for r := 0; r < n; r++ {
		if r > 0 && r%cfg.RegimeLen == 0 && sched.Float64() < cfg.Pd {
			g.Next()
			cur = g.CurrentMixture()
		}
		v := flat[r*cfg.Dim : (r+1)*cfg.Dim : (r+1)*cfg.Dim]
		copy(v, cur.Sample(rng))
		recs[r] = v
	}
	hrng := rand.New(rand.NewSource(seed + heldOutOffset + int64(i)))
	return siteInput{recs: recs, final: cur, heldOut: cur.SampleN(hrng, heldOutN)}, nil
}

// paperStream is the paper's synthetic stream: d=4, K=5, a new regime
// with probability P_d=0.1 every 2000 records.
func paperStream() stream.SyntheticConfig {
	return stream.SyntheticConfig{Dim: dim, K: 5, Pd: 0.1, RegimeLen: 2000}
}

// stationaryStream is one regime of K=16 well-separated components: at
// the default mean range of 10 the k-d-pruned J_fit bound almost never
// decides, at 100 it decides on every chunk.
func stationaryStream() stream.SyntheticConfig {
	return stream.SyntheticConfig{Dim: dim, K: 16, Pd: 0, MeanRange: 1000}
}

// queryPool draws the points the read load sends: batches of batchN
// points from the sites' final regimes, flattened for the wire.
func queryPool(inputs []siteInput, seed int64, batches, batchN int) [][]float64 {
	rng := rand.New(rand.NewSource(seed + 2*heldOutOffset))
	out := make([][]float64, batches)
	for b := range out {
		flat := make([]float64, 0, batchN*dim)
		for p := 0; p < batchN; p++ {
			x := inputs[rng.Intn(len(inputs))].final.Sample(rng)
			flat = append(flat, x...)
		}
		out[b] = flat
	}
	return out
}

// avgNLL is the negated average log-likelihood of every site's held-out
// sample under logpdf, in nats per record: the paper's quality measure
// (Figs 5–7) with its sign flipped so the value is positive and lower is
// better.
func avgNLL(inputs []siteInput, logpdf func(linalg.Vector) float64) (float64, error) {
	var sum float64
	var n int
	for _, in := range inputs {
		for _, x := range in.heldOut {
			sum += logpdf(x)
			n++
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("no held-out records")
	}
	return -sum / float64(n), nil
}
