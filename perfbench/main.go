// Command perfbench is CluDistream's benchmark. It drives the real layers
// through their public functions — sites over loopback TCP into a durable
// coordinator with a query tier, and an in-process tree deployment — and
// prints end-to-end metrics (--trace 0) or a per-layer ledger from a
// separately traced run (--trace 1). See README.md for the workloads,
// the metrics and the correctness checks.
//
// Usage, from the repository root:
//
//	bash perfbench/run.sh --workload sliding --seed 1 --seconds 20 --trace 0
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// commit is stamped by run.sh (-ldflags -X main.commit=...).
var commit = "unknown"

// runConfig is one invocation's settings.
type runConfig struct {
	seed     int64
	seconds  int
	trace    bool
	stateDir string
}

// metric is one reported number.
type metric struct {
	name, unit string
	value      float64
}

// result is one workload run.
type result struct {
	workload  string
	metrics   []metric
	attempted int
	failed    int
	notes     [][2]string // human-only lines: label, text
	ledger    []ledgerRow
	spans     []span // traced runs: every span, written out when the run ends
}

func (r *result) add(name, unit string, v float64) {
	r.metrics = append(r.metrics, metric{name, unit, v})
}

func (r *result) note(label, text string) { r.notes = append(r.notes, [2]string{label, text}) }

var workloadNames = []string{"stationary", "sliding", "query", "tree"}

func run(name string, cfg runConfig) (*result, error) {
	if w := tcpWorkloads[name]; w != nil {
		return runTCP(w, cfg)
	}
	if name == "tree" {
		return runTree(cfg)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s, all)", name, strings.Join(workloadNames, ", "))
}

func main() {
	root := flag.String("root", ".", "repository root; state directories go under <root>/.bench_build")
	workload := flag.String("workload", "", "workload: "+strings.Join(workloadNames, ", ")+" or all")
	seed := flag.Int64("seed", 1, "workload seed: every input record is drawn from it")
	seconds := flag.Int("seconds", 20, "run length; sizes each workload's fixed amount of work")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer ledger from a traced run")
	flag.Parse()
	if *workload == "" || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := runConfig{
		seed: *seed, seconds: *seconds, trace: *trace == 1,
		stateDir: filepath.Join(*root, ".bench_build", "state", fmt.Sprint(os.Getpid())),
	}
	defer os.RemoveAll(cfg.stateDir)

	names := []string{*workload}
	if *workload == "all" {
		names = workloadNames
	}
	fmt.Printf("perfbench commit=%s go=%s GOMAXPROCS=%d nproc=%d os/arch=%s/%s\n",
		commit, runtime.Version(), runtime.GOMAXPROCS(0), runtime.NumCPU(), runtime.GOOS, runtime.GOARCH)
	var results []*result
	for _, name := range names {
		fmt.Printf("workload=%s seed=%d held-out-seed=%d+site seconds=%d trace=%d\n",
			name, *seed, *seed+heldOutOffset, *seconds, *trace)
		res, err := run(name, cfg)
		if err == nil {
			err = checkSpec(*root, cfg.trace, res)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
			os.RemoveAll(cfg.stateDir)
			os.Exit(1)
		}
		if len(res.spans) > 0 {
			path := filepath.Join(*root, ".bench_build", "spans", fmt.Sprintf("%s-seed%d.jsonl", name, *seed))
			if err := writeSpans(path, res.spans); err != nil {
				fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", name, err)
				os.Exit(1)
			}
			res.note("spans", fmt.Sprintf("%d written to %s", len(res.spans), path))
		}
		printResult(res)
		results = append(results, res)
	}
	out := map[string]any{"correct": true}
	attempted, failed := 0, 0
	ms := map[string]any{}
	for _, r := range results {
		attempted += r.attempted
		failed += r.failed
		for _, m := range r.metrics {
			key := m.name
			if len(results) > 1 {
				key = r.workload + "/" + m.name
			}
			ms[key] = map[string]any{"value": m.value, "unit": m.unit}
		}
	}
	out["attempted"], out["failed"], out["metrics"] = attempted, failed, ms
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(b))
}

// writeSpans writes one JSON object per span.
func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkSpec holds a result to BENCHMARK.json: an untraced run reports
// exactly the end-to-end metrics, a traced run exactly the per-layer
// ones, each with its declared unit.
func checkSpec(root string, trace bool, r *result) error {
	b, err := os.ReadFile(filepath.Join(root, "BENCHMARK.json"))
	if err != nil {
		return err
	}
	type entry struct{ Name, Unit string }
	var spec struct {
		EndToEnd []entry `json:"end_to_end"`
		PerLayer []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		return fmt.Errorf("BENCHMARK.json: %w", err)
	}
	want := spec.EndToEnd
	if trace {
		want = spec.PerLayer
	}
	got := map[string]string{}
	for _, m := range r.metrics {
		if _, dup := got[m.name]; dup {
			return fmt.Errorf("metric %s reported twice", m.name)
		}
		got[m.name] = m.unit
	}
	for _, e := range want {
		u, ok := got[e.Name]
		if !ok {
			return fmt.Errorf("metric %s declared in BENCHMARK.json was not reported", e.Name)
		}
		if u != e.Unit {
			return fmt.Errorf("metric %s reported in %s, declared in %s", e.Name, u, e.Unit)
		}
		delete(got, e.Name)
	}
	for n := range got {
		return fmt.Errorf("metric %s is not declared in BENCHMARK.json", n)
	}
	return nil
}

// printResult writes the human-readable report: every metric by name
// with its unit, the notes, and in traced runs the self-time ledger.
func printResult(r *result) {
	fmt.Printf("== %s: %d operations attempted, %d failed, error_ratio %.6g\n",
		r.workload, r.attempted, r.failed, float64(r.failed)/float64(max(r.attempted, 1)))
	for _, m := range r.metrics {
		fmt.Printf("  %-34s %16.6g %s\n", m.name, m.value, m.unit)
	}
	for _, n := range r.notes {
		fmt.Printf("  %-34s %s\n", n[0]+":", n[1])
	}
	if len(r.ledger) > 0 {
		var total float64
		for _, l := range r.ledger {
			total += l.selfMs
		}
		sort.Slice(r.ledger, func(a, b int) bool { return r.ledger[a].selfMs > r.ledger[b].selfMs })
		fmt.Printf("  self time by layer (traced run, %.1f ms in all):\n", total)
		for _, l := range r.ledger {
			fmt.Printf("    %-12s %12.1f ms %6.1f%% %10d calls\n", l.layer, l.selfMs, 100*l.selfMs/total, l.calls)
		}
	}
}
