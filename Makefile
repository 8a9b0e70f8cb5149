GO ?= go
VERSION ?= $(shell git describe --tags --always --dirty 2>/dev/null || echo dev)
COMMIT ?= $(shell git rev-parse --short HEAD 2>/dev/null || echo unknown)
LDFLAGS := -ldflags "-X cludistream/internal/buildinfo.Version=$(VERSION) -X cludistream/internal/buildinfo.Commit=$(COMMIT)"

.PHONY: all build vet lint test race race-em race-parallel race-score race-query alloc-gate alloc-gate-query recover check tier1 loc fuzz bench bench-compare obs-demo trace-demo dst dst-tree dst-long

all: check

build:
	$(GO) build $(LDFLAGS) ./...

vet:
	$(GO) vet ./...

# Static hygiene gate: vet plus gofmt, failing loudly on any unformatted
# file instead of silently reformatting it.
lint: vet
	@unformatted=$$(gofmt -l .); \
	if [ -n "$$unformatted" ]; then \
		echo "gofmt needed on:"; echo "$$unformatted"; exit 1; \
	fi

test:
	$(GO) test ./...

# The chaos and concurrency suites must be race-clean.
race:
	$(GO) test -race ./...

# Focused race pass over the parallel fused E-step and everything that
# embeds it (sites score chunks through it, the goroutine-per-site layer
# pins Workers=1 on top of it).
race-em:
	$(GO) test -race ./internal/em/ ./internal/gaussian/ ./internal/parallel/

# Sharded-apply determinism and Feed/Close lifecycle races, run twice so
# goroutine interleavings get a second roll of the dice.
race-parallel:
	$(GO) test -race -run 'TestShardedApplyMatchesMutex|TestFeedCloseConcurrencyHammer|TestQueueDepthGauges' -count 2 ./internal/parallel/

# The sublinear scoring hot path under the race detector at several
# GOMAXPROCS settings: the per-model score index builds lazily on first
# use and the pruned/shared/incremental parity suites hammer it.
race-score:
	for procs in 1 2 4; do \
		GOMAXPROCS=$$procs $(GO) test -race -count=1 \
		  -run 'TestScoreIndexConcurrentBuild|TestPrunedPathBitIdenticalToExact|TestPrunedParityQuick|TestIncrementalRemergeMatchesExact' \
		  ./internal/site/ ./internal/gaussian/ ./internal/coordinator/ || exit 1; \
	done

# The RCU query tier under the race detector at several GOMAXPROCS
# settings: concurrent readers hammer Classify/LogDensity/TopK while a
# writer keeps ingesting and republishing snapshots, plus the deep-copy
# immutability pin.
race-query:
	for procs in 1 2 4; do \
		GOMAXPROCS=$$procs $(GO) test -race -count=1 \
		  -run 'TestQueryRaceHammer|TestSnapshotImmutableUnderIngest' \
		  ./internal/query/ || exit 1; \
	done

# The query read path must not allocate: Classify, LogDensity, TopK and
# Current are all asserted at 0 allocs/op via testing.AllocsPerRun.
alloc-gate-query:
	$(GO) test -run 'TestQueryReadPathZeroAlloc' -count=1 ./internal/query/

# Steady-state ingest must not allocate: the benchmark itself asserts
# 0 allocs/record via testing.AllocsPerRun before timing, so a handful of
# iterations is enough to enforce the gate. The regex is a prefix match,
# so it covers both the exact-path and the K=16 pruned-path benchmarks —
# the latter gates the shared-stats workspace and bound accumulators.
# The coordinator's simplex merge is bounded too: FitMerge at d=4 must
# stay at or below 3,000 allocs/op (its sample set is built once per merge).
alloc-gate:
	$(GO) test -run '^$$' -bench 'BenchmarkSiteSteadyState' -benchtime 100x .
	$(GO) test -run 'TestFitMergeAllocGate' -count=1 ./internal/gaussian/

# Crash-recovery gate: the coordinator is killed mid-merge under 20%
# message loss and must recover bit-identical state from its checkpoint +
# WAL store — in-process (chaos test) and across a real TCP server
# restart with the reconnect handshake. The shared receive pipeline's
# table test, the WAL-refusal redelivery test, and the send path's
# aggregator-restart and sliding-window parity tests run here too.
recover:
	$(GO) test -race -run 'TestChaosCoordinatorCrashRecovery' .
	$(GO) test -race -run 'TestServerRestartRecoveryOverTCP|TestHandshakePrunesRecoveredSuffix|TestWALRefusalRedeliversFrame|TestAggregatorRestartReplacesMixture|TestSlidingParityOverTCP' ./internal/netio/
	$(GO) test -race -run 'TestReceiver' ./internal/durable/

# Full pre-merge gate.
check: build lint race-em race-parallel race-score race-query alloc-gate alloc-gate-query recover race dst dst-tree

# Deterministic simulation testing (internal/dst): sweep seeded
# whole-system scenarios — random deployments, drift programs, and fault
# schedules — under the full invariant suite. A failure prints the seed
# and writes a replayable artifact; `go run ./cmd/dst replay -seed N`
# reproduces it bit-identically.
dst:
	$(GO) run ./cmd/dst run -seeds 150

# Tree-topology DST: random 1-3-layer trees of 100+ sites with
# heterogeneous links, interior-node partitions, and aggregator
# crash/recovery, checked hop by hop (per-layer exactly-once, Theorem-3
# byte/memory bounds, tree-vs-flat equivalence). Seeds fan out across
# cores; `go run ./cmd/dst replay -tree -seed N` reproduces a failure.
dst-tree:
	$(GO) run ./cmd/dst run -tree -seeds 150

# Nightly depth: more seeds, larger deployments and drift programs, and
# tree topologies up to 1000 sites and 3 aggregator layers.
dst-long:
	$(GO) run ./cmd/dst run -seeds 500 -long
	$(GO) run ./cmd/dst run -seeds 1500
	$(GO) run ./cmd/dst run -tree -long -seeds 100

# The repo's minimal health check (see ROADMAP.md).
tier1:
	$(GO) build ./... && $(GO) test ./...

# Go line counts of the tracked tree: production code (outside
# perfbench/), tests, and the perfbench harness.
loc:
	@files=$$(git ls-files '*.go'); \
	printf 'production %s\n' $$(echo "$$files" | grep -v '^perfbench/' | grep -v '_test\.go$$' | xargs cat | wc -l); \
	printf 'test       %s\n' $$(echo "$$files" | grep -v '^perfbench/' | grep '_test\.go$$' | xargs cat | wc -l); \
	printf 'perfbench  %s\n' $$(echo "$$files" | grep '^perfbench/' | xargs cat | wc -l)

# Short fuzz pass over the wire decoders, the frame/ack protocol, the
# durable formats (site archive, coordinator checkpoint, WAL), and the
# sender's outbox state machine and sliding-window emitter.
fuzz:
	$(GO) test -run=^$$ -fuzz=FuzzDecode -fuzztime=10s ./internal/transport/
	$(GO) test -run=^$$ -fuzz=FuzzReadFrame -fuzztime=10s ./internal/netio/
	$(GO) test -run=^$$ -fuzz=FuzzReadAck -fuzztime=5s ./internal/netio/
	$(GO) test -run=^$$ -fuzz=FuzzLoad$$ -fuzztime=10s ./internal/persist/
	$(GO) test -run=^$$ -fuzz=FuzzLoadCoordinatorState -fuzztime=10s ./internal/persist/
	$(GO) test -run=^$$ -fuzz=FuzzReadWAL -fuzztime=10s ./internal/persist/
	$(GO) test -run=^$$ -fuzz=FuzzOutbox -fuzztime=10s ./internal/uplink/
	$(GO) test -run=^$$ -fuzz=FuzzEmitter -fuzztime=10s ./internal/uplink/

# Machine-readable benchmark snapshot: one pass over every figure
# reproduction (-benchtime 1x — each figure is a full experiment) plus the
# hot-path micro-benchmarks, converted to JSON. Commit the refreshed file
# when performance-relevant code changes.
bench:
	{ $(GO) test -run '^$$' -bench 'BenchmarkFig|BenchmarkAblation' -benchtime 1x . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkMixture|BenchmarkEMFit|BenchmarkSite|BenchmarkSystem|BenchmarkCholesky|BenchmarkFitMerge|BenchmarkSMEM|BenchmarkScore|BenchmarkPosterior|BenchmarkQuadForm|BenchmarkTelemetry|BenchmarkMultiTest|BenchmarkRemerge' -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkQuery' -benchmem ./internal/query/ ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkTreeLoad' -benchtime 1x ./internal/tree/ ; } \
	  | tee /dev/stderr | $(GO) run $(LDFLAGS) ./cmd/benchjson > BENCH_quick.json

# Regression check against the committed snapshot: rerun the hot-path
# micro-benchmarks (skipping the slow figure reproductions), convert to
# JSON, and diff ns/op against BENCH_quick.json. Fails when any shared
# benchmark slowed down by more than 10%; figure benchmarks present only
# in the snapshot show up as informational "(no baseline)" rows.
bench-compare:
	@tmp=$$(mktemp) && \
	{ $(GO) test -run '^$$' -bench 'BenchmarkMixture|BenchmarkEMFit|BenchmarkSite|BenchmarkSystem|BenchmarkCholesky|BenchmarkFitMerge|BenchmarkSMEM|BenchmarkScore|BenchmarkPosterior|BenchmarkQuadForm|BenchmarkTelemetry|BenchmarkMultiTest|BenchmarkRemerge' -benchmem . ; \
	  $(GO) test -run '^$$' -bench 'BenchmarkQuery' -benchmem ./internal/query/ ; } \
	  | $(GO) run $(LDFLAGS) ./cmd/benchjson > $$tmp && \
	$(GO) run ./cmd/benchjson -compare BENCH_quick.json $$tmp; \
	rc=$$?; rm -f $$tmp; exit $$rc

# Live observability demo: run the distributed example with debug
# endpoints up, snapshot them mid-flight with obsdump, and print the
# event journal. Everything runs on loopback and exits on its own.
obs-demo:
	$(GO) run ./examples/distributed -debug-addr 127.0.0.1:7171 -linger 4s & \
	sleep 2.5; \
	$(GO) run ./cmd/obsdump -addr 127.0.0.1:7171; \
	echo; echo "--- event journal ---"; \
	$(GO) run ./cmd/obsdump -addr 127.0.0.1:7171 -events -limit 20; \
	wait

# Tracing demo: same distributed example, but the mid-flight snapshot is
# the causal-trace view — cumulative span counts plus the slowest
# ingest→visible chunk traces rendered as span waterfalls.
trace-demo:
	$(GO) run ./examples/distributed -debug-addr 127.0.0.1:7171 -linger 4s & \
	sleep 2.5; \
	$(GO) run ./cmd/obsdump -addr 127.0.0.1:7171 trace; \
	wait
