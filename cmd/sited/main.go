// Command sited is the remote-site agent: it consumes a stream (synthetic,
// NFD-like, or CSV on stdin), runs the test-and-cluster site processing,
// and ships model updates to a coordd coordinator over TCP.
//
// Usage:
//
//	sited -connect localhost:7070 -site-id 1 -kind synthetic -updates 100000
//	datagen -kind nfd -n 50000 | sited -connect host:7070 -site-id 2 -kind csv
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cludistream/internal/buildinfo"
	"cludistream/internal/linalg"
	"cludistream/internal/netio"
	"cludistream/internal/persist"
	"cludistream/internal/site"
	"cludistream/internal/stream"
	"cludistream/internal/telemetry"
	"cludistream/internal/uplink"
)

func main() {
	connect := flag.String("connect", "localhost:7070", "coordinator address")
	siteID := flag.Int("site-id", 1, "unique site identifier")
	kind := flag.String("kind", "synthetic", "stream kind: synthetic, nfd or csv (stdin)")
	updates := flag.Int("updates", 100_000, "records to process (generated kinds)")
	dim := flag.Int("dim", 4, "dimensionality (synthetic)")
	k := flag.Int("k", 5, "mixture components per model")
	eps := flag.Float64("epsilon", 0.02, "error bound ε")
	fitEps := flag.Float64("fit-eps", 0.25, "J_fit threshold (0 couples to ε)")
	delta := flag.Float64("delta", 0.01, "probability error bound δ")
	cmax := flag.Int("cmax", 4, "maximal tests per chunk")
	pd := flag.Float64("pd", 0.1, "new-distribution probability per regime boundary")
	rate := flag.Float64("rate", 0, "records/second throttle (0 = as fast as possible)")
	horizon := flag.Int("sliding-chunks", 0, "sliding-window horizon in chunks (0 = landmark)")
	seed := flag.Int64("seed", 1, "random seed")
	archive := flag.String("archive", "", "write the site's model/event archive here on exit")
	maxRetry := flag.Int("max-retry", 12, "initial-dial attempts before giving up (-1 = retry forever)")
	shutdownTimeout := flag.Duration("shutdown-timeout", 30*time.Second, "outbox drain budget on exit or SIGTERM")
	epoch := flag.Uint("epoch", 0, "incarnation number for exactly-once delivery (0 = derive from wall clock)")
	debugAddr := flag.String("debug-addr", "", "serve /debug/vars, /debug/events and pprof on this address (empty = off)")
	trace := flag.Bool("trace", false, "with -debug-addr: trace every chunk ingest→coordinator (/debug/traces; negotiates the wire trace suffix with the coordinator)")
	version := flag.Bool("version", false, "print version and exit")
	flag.Parse()
	if *version {
		fmt.Println(buildinfo.String("sited"))
		return
	}

	var reg *telemetry.Registry
	if *debugAddr != "" {
		reg = telemetry.NewRegistry()
		if *trace {
			reg.EnableTracing(telemetry.TraceOptions{})
		}
		dbg, err := telemetry.Serve(*debugAddr, reg)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		defer dbg.Close()
		fmt.Printf("sited %d: debug endpoints on http://%v/debug/vars\n", *siteID, dbg.Addr())
	}

	var gen stream.Generator
	var csvData []linalg.Vector
	var err error
	switch *kind {
	case "synthetic":
		gen, err = stream.NewSynthetic(stream.SyntheticConfig{Dim: *dim, K: *k, Pd: *pd, Seed: *seed})
	case "nfd":
		var g *stream.NFD
		g, err = stream.NewNFD(stream.NFDConfig{Pd: *pd, Seed: *seed})
		if err == nil {
			gen = g
			*dim = stream.NFDDim
		}
	case "csv":
		csvData, err = stream.ReadCSV(os.Stdin)
		if err == nil {
			if len(csvData) == 0 {
				err = fmt.Errorf("no CSV records on stdin")
			} else {
				*dim = len(csvData[0])
				*updates = len(csvData)
			}
		}
	default:
		err = fmt.Errorf("unknown kind %q", *kind)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	st, err := site.New(site.Config{
		SiteID:               *siteID,
		Dim:                  *dim,
		K:                    *k,
		Epsilon:              *eps,
		FitEps:               *fitEps,
		Delta:                *delta,
		CMax:                 *cmax,
		Seed:                 *seed,
		EmitFitWeightUpdates: *horizon > 0,
		Telemetry:            reg,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}

	// A restarted process derives a fresh, higher epoch from the wall
	// clock by default, so the coordinator discards the dead incarnation.
	opts := netio.DialOptions{
		SlidingHorizonChunks: *horizon,
		Retry:                netio.RetryPolicy{Epoch: uplink.Incarnation(uint32(*epoch), time.Now()), Telemetry: reg},
	}
	fmt.Printf("sited: version=%s site=%d kind=%s dim=%d k=%d epsilon=%g fit_eps=%g delta=%g cmax=%d connect=%s debug_addr=%s\n",
		buildinfo.Version, *siteID, *kind, *dim, *k, *eps, *fitEps, *delta, *cmax, *connect, *debugAddr)
	client, err := netio.DialWithRetry(*connect, *maxRetry, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "sited %d: %s\n", *siteID, fmt.Sprintf(format, args...))
	}, func() (*netio.Client, error) { return netio.Dial(*connect, st, *siteID, opts) })
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	defer client.Close()
	fmt.Printf("sited %d: connected to %s, chunk size M=%d\n", *siteID, *connect, st.ChunkSize())

	var throttle <-chan time.Time
	if *rate > 0 {
		t := time.NewTicker(time.Duration(float64(time.Second) / *rate))
		defer t.Stop()
		throttle = t.C
	}

	// Graceful shutdown: a signal stops the feed loop; the outbox is
	// drained and the archive written exactly as on a natural exit.
	sigCh := make(chan os.Signal, 1)
	signal.Notify(sigCh, os.Interrupt, syscall.SIGTERM)

	start := time.Now()
	fed := 0
feed:
	for i := 0; i < *updates; i++ {
		select {
		case sig := <-sigCh:
			fmt.Printf("sited %d: %v — stopping after %d records\n", *siteID, sig, fed)
			break feed
		default:
		}
		var x linalg.Vector
		if csvData != nil {
			x = csvData[i]
		} else {
			x = gen.Next()
		}
		if throttle != nil {
			<-throttle
		}
		if err := client.Observe(x); err != nil {
			// Coordinator rejections affect one message, not the stream;
			// delivery failures are retried by the outbox. Only local site
			// errors (bad records) are fatal.
			if errors.Is(err, netio.ErrRemote) {
				fmt.Fprintf(os.Stderr, "sited %d: %v (continuing)\n", *siteID, err)
				continue
			}
			fmt.Fprintf(os.Stderr, "sited %d: %v\n", *siteID, err)
			os.Exit(1)
		}
		fed++
	}
	elapsed := time.Since(start)

	// Drain whatever the fault-tolerant outbox still holds before
	// reporting; an unreachable coordinator bounds the wait.
	if err := client.Flush(*shutdownTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "sited %d: flush: %v\n", *siteID, err)
	}

	bytesOut, messages := client.Stats()
	stats := st.Stats()
	fmt.Printf("sited %d: %d records in %v (%.0f/s) | %d chunks, %d fits, %d EM runs | sent %d msgs / %d bytes\n",
		*siteID, fed, elapsed.Round(time.Millisecond),
		float64(fed)/elapsed.Seconds(),
		stats.Chunks, stats.Fits, stats.EMRuns, messages, bytesOut)
	if d := client.Delivery(); d.Retries > 0 || d.Reconnects > 0 || d.Queued > 0 {
		fmt.Printf("sited %d: delivery — %d retries, %d reconnects, %d retransmitted bytes, %d dropped, %d still queued\n",
			*siteID, d.Retries, d.Reconnects, d.RetransmitBytes, d.Dropped, d.Queued)
	}

	if *archive != "" {
		f, err := os.Create(*archive)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := persist.Save(f, persist.FromSite(st)); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		fmt.Printf("sited %d: archive written to %s\n", *siteID, *archive)
	}
}
