package main

import (
	"fmt"
	"math"
	"time"
)

// outcome is what one timed pass delivered, in the terms every workload
// shares.
type outcome struct {
	setups    []float64 // seconds per set-up
	records   int       // fed in the timed window
	elapsed   time.Duration
	fresh     []float64 // per closed chunk, ms (see freshness)
	wire      float64   // goodput bytes per 1000 records, warm-up included
	nll       float64   // avg_nll, nats per record
	mem       int       // Theorem-3 memory, bytes
	rd        *reader   // the read load; nil when the pass made none
	openLoop  bool      // ingest ran at a fixed rate, which the machine's speed does not set
	lag       []float64 // open-loop lateness per record, ms
	attempted int
	failed    int
	slowdown  float64 // the run's calibration over the reference (see calib.go)
}

// endToEnd adds the end-to-end metrics of an untraced run. Freshness and
// wire bytes are printed here and reported as per-layer metrics: on
// some workloads they hinge on a handful of rare events per run (a refit
// on the stationary stream, an upload at the tree's root), so their
// run-to-run spread is wider than any regression bound could be.
func endToEnd(res *result, o *outcome) error {
	qp50, err := percentile(o.rd.lat, 5000)
	if err != nil {
		return gateErr("percentile-support", err)
	}
	qp90, err := percentile(o.rd.lat, 9000)
	if err != nil {
		return gateErr("percentile-support", err)
	}
	if math.IsNaN(o.nll) || math.IsInf(o.nll, 0) {
		return gateErr("avg-nll-finite", fmt.Errorf("avg_nll = %v", o.nll))
	}
	res.attempted, res.failed = o.attempted, o.failed
	setup := median(o.setups)
	ingest := float64(o.records) / o.elapsed.Seconds()
	qps := float64(o.rd.points) / (o.rd.end - o.rd.start).Seconds()
	k := o.slowdown
	res.add("setup_s", "s", setup/k)
	if o.openLoop {
		res.add("ingest_rps", "rec/s", ingest)
	} else {
		res.add("ingest_rps", "rec/s", ingest*k)
	}
	res.add("query_qps", "points/s", qps*k)
	res.add("query_p50_ms", "ms", qp50/k)
	res.add("query_p90_ms", "ms", qp90/k)
	res.add("avg_nll", "nats/rec", o.nll)
	res.add("mem_bytes", "B", float64(o.mem))
	res.note("speed", fmt.Sprintf("calibration %.4gx the reference; raw setup_s %.6g, ingest_rps %.6g, query_qps %.6g, query_p50_ms %.6g, query_p90_ms %.6g",
		k, setup, ingest, qps, qp50, qp90))
	res.note("freshness_ms", fmt.Sprintf("%s, mean %.4g", summarize(o.fresh), meanF(o.fresh)))
	res.note("wire_bytes_per_krec", fmt.Sprintf("%.6g B", o.wire))
	res.note("query_latency_ms", summarize(o.rd.lat).String())
	res.note("setup_s", fmt.Sprintf("%d set-ups: %v", len(o.setups), o.setups))
	if len(o.lag) > 0 {
		res.note("load.lag_ms", summarize(o.lag).String())
	}
	return nil
}

// outcomeLayer adds the per-layer metrics a traced run takes from its
// untraced pass: freshness, wire bytes and the error ratio.
func outcomeLayer(res *result, o *outcome) {
	res.add("load.freshness_p50_ms", "ms", pctOr0(o.fresh, 5000))
	res.add("load.freshness_p90_ms", "ms", pctOr0(o.fresh, 9000))
	res.add("load.freshness_mean_ms", "ms", meanF(o.fresh))
	res.add("load.error_ratio", "fraction", float64(o.failed)/float64(max(o.attempted, 1)))
	res.add("transport.wire_bytes_per_krec", "B", o.wire)
	res.note("load.freshness_ms", fmt.Sprintf("untraced pass: %s, mean %.4g", summarize(o.fresh), meanF(o.fresh)))
}
