// Command perfbench is the repository's end-to-end benchmark. It runs
// one named workload against the hybridcap packages, checks every
// output against stored references, and prints the metrics by name
// with their units. The last line of standard output is one JSON
// object: {"correct", "attempted", "failed", "metrics"}.
//
//	perfbench -root .. -workload table1-full -seed 1 -seconds 20 -trace 0
//
// With -trace 0 it reports the end-to-end metrics of BENCHMARK.json,
// measured with tracing off. With -trace 1 it re-drives the workload's
// calls from this package's own code, records a span around each call
// into a layer, writes the spans to .bench_build/traces/ and reports
// the per-layer metrics instead. Every run also prints a record line
// carrying the host fingerprint and, per metric, the statistic and the
// sample count behind it; `perfbench -compare A B` refuses to compare
// two such records taken on different hosts.
//
// Use bash perfbench/run.sh, which builds this package from the
// checkout's sources first.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metric is one reported number with the statistic behind it.
type metric struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	// Stat names how Value was taken from the samples: "median",
	// "p10", "p95", "max", "sum", "count", "ratio" ...
	Stat    string `json:"stat"`
	Samples int    `json:"samples"`
}

// outcome is what a workload run returns.
type outcome struct {
	attempted, failed int
	// mismatches describes every failed output check.
	mismatches []string
	metrics    []metric
	// notes are extra human-readable result lines (per-class
	// latencies, the chosen tail percentile ...).
	notes []string
}

func (o *outcome) add(m metric) { o.metrics = append(o.metrics, m) }

func (o *outcome) note(format string, args ...any) {
	o.notes = append(o.notes, fmt.Sprintf(format, args...))
}

// mismatch records one failed output check; cost is the number of
// attempted operations it invalidates.
func (o *outcome) mismatch(cost int, format string, args ...any) {
	o.failed += cost
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

// runCtx carries a run's settings into a workload.
type runCtx struct {
	seed    int64
	seconds int
	trace   bool
	nproc   int
	// scratch is this run's private directory under .bench_build; it
	// is removed when the run ends.
	scratch string
	// traceDir receives the span files of traced runs.
	traceDir string
	refs     *references
}

type workload struct {
	name string
	run  func(rc *runCtx) (*outcome, error)
}

var workloads = []workload{
	{"table1-full", runTable1},
	{"slotsim", runSlotsim},
	{"daemon-mix", runDaemon},
}

func main() {
	if err := mainErr(); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func mainErr() error {
	root := flag.String("root", ".", "checkout root (holds go.mod and .bench_build/)")
	name := flag.String("workload", "", "workload to run: table1-full, slotsim or daemon-mix")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 20, "measurement budget in seconds")
	trace := flag.Int("trace", 0, "1 re-drives the workload traced and reports per-layer metrics")
	compare := flag.Bool("compare", false, "compare the record lines of two result files given as arguments")
	writeRefs := flag.Bool("write-refs", false, "print freshly computed references.json content and exit")
	flag.Parse()
	if *writeRefs {
		return printReferences(os.Stdout)
	}
	if *compare {
		if flag.NArg() != 2 {
			return fmt.Errorf("-compare takes two result files")
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	refs, err := loadReferences()
	if err != nil {
		return err
	}
	absRoot, err := filepath.Abs(*root)
	if err != nil {
		return err
	}
	build := filepath.Join(absRoot, ".bench_build")
	if err := os.MkdirAll(build, 0o755); err != nil {
		return err
	}
	scratch, err := os.MkdirTemp(build, "run-")
	if err != nil {
		return fmt.Errorf("scratch dir: %w", err)
	}
	defer os.RemoveAll(scratch)
	rc := &runCtx{
		seed:     *seed,
		seconds:  *seconds,
		trace:    *trace == 1,
		nproc:    runtime.NumCPU(),
		scratch:  scratch,
		traceDir: filepath.Join(build, "traces"),
		refs:     refs,
	}
	out, err := wl.run(rc)
	if err != nil {
		return fmt.Errorf("%s: %w", wl.name, err)
	}
	out.add(metric{Name: "peak_rss_mib", Value: peakRSSMiB(), Unit: "MiB", Stat: "max", Samples: 1})
	return report(os.Stdout, wl.name, rc, absRoot, out)
}

// record is the self-describing result line: what ran, where, and how
// each number was taken.
type record struct {
	Workload   string      `json:"workload"`
	Seed       int64       `json:"seed"`
	Seconds    int         `json:"seconds"`
	Trace      bool        `json:"trace"`
	Host       fingerprint `json:"host"`
	Attempted  int         `json:"attempted"`
	Failed     int         `json:"failed"`
	FailedFrac float64     `json:"failed_frac"`
	Mismatches []string    `json:"mismatches,omitempty"`
	Metrics    []metric    `json:"metrics"`
}

// report prints the human-readable lines, the record line and, last,
// the result object. Only the metrics BENCHMARK.json lists for the
// mode go into the result object; everything else stays in the record.
func report(w *os.File, name string, rc *runCtx, root string, out *outcome) error {
	if out.attempted < 1 {
		return fmt.Errorf("%s attempted no operations", name)
	}
	want := endToEndMetrics
	if rc.trace {
		want = perLayerMetrics
	}
	byName := map[string]metric{}
	for _, m := range out.metrics {
		byName[m.Name] = m
	}
	results := map[string]any{}
	for _, n := range want {
		m, ok := byName[n]
		if !ok {
			return fmt.Errorf("%s did not produce metric %s", name, n)
		}
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("%s: metric %s is %v", name, n, m.Value)
		}
		if rc.trace && m.Unit != layerUnit(n) {
			return fmt.Errorf("%s: metric %s in %s, BENCHMARK.json says %s", name, n, m.Unit, layerUnit(n))
		}
		results[n] = map[string]any{"value": m.Value, "unit": m.Unit}
	}
	fmt.Fprintf(w, "workload %s seed %d seconds %d trace %v\n", name, rc.seed, rc.seconds, rc.trace)
	sorted := append([]metric(nil), out.metrics...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].Name < sorted[j].Name })
	for _, m := range sorted {
		fmt.Fprintf(w, "  %-34s %14.6g %-6s (%s of %d)\n", m.Name, m.Value, m.Unit, m.Stat, m.Samples)
	}
	failedFrac := float64(out.failed) / float64(out.attempted)
	fmt.Fprintf(w, "  %-34s %14.6g %-6s (%d of %d operations)\n", "failed_frac", failedFrac, "ratio", out.failed, out.attempted)
	for _, n := range out.notes {
		fmt.Fprintf(w, "  %s\n", n)
	}
	for _, m := range out.mismatches {
		fmt.Fprintf(w, "  MISMATCH %s\n", m)
	}
	rec := record{
		Workload: name, Seed: rc.seed, Seconds: rc.seconds, Trace: rc.trace,
		Host: hostFingerprint(root), Attempted: out.attempted, Failed: out.failed,
		FailedFrac: failedFrac, Mismatches: out.mismatches, Metrics: sorted,
	}
	line, err := json.Marshal(map[string]record{"record": rec})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(line))
	final, err := json.Marshal(map[string]any{
		"correct":   out.failed == 0 && len(out.mismatches) == 0,
		"attempted": out.attempted,
		"failed":    out.failed,
		"metrics":   results,
	})
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(final))
	return nil
}

// endToEndMetrics and perLayerMetrics are the metric names of
// BENCHMARK.json, in its order; a test keeps the two in step.
var endToEndMetrics = []string{"setup_s", "wall_s", "peak_rss_mib", "p50_ms", "tail_ms"}

var perLayerMetrics = []string{
	"network.new_s", "network.new_max_ms", "traffic.permutation_s",
	"routing.schemeA.eval_s", "routing.schemeB.eval_s", "routing.schemeBcluster.eval_s",
	"routing.gridMultihop.eval_s", "routing.schemeC.eval_s",
	"backbone.add_ns_per_edge", "backbone.edges_per_flow",
	"experiments.cell_max_s", "engine.busy_frac",
	"experiments.allocs_per_cell", "experiments.alloc_bytes_per_cell",
	"mobility.cache_build_s",
	"sim.twohop_s", "sim.multihop_s", "sim.infra_s",
	"mobility.step_us_per_slot", "spatial.rebuild_us_per_slot", "scheduler.sstar_us_per_slot",
	"scheduler.pairs_per_slot", "sim.delivered_pkts", "sim.residual_us_per_slot", "sim.allocs_per_slot",
	"server.queue_wait_p50_ms", "server.queue_wait_tail_ms",
	"server.run_cold_p50_ms", "server.run_replay_p50_ms",
	"scenario.parse_hash_us", "resultstore.get_us", "resultstore.put_us",
	"cellcache.get_us", "cellcache.put_us", "cellcache.hits", "cellcache.misses", "cellcache.puts",
	"engine.replay_us_per_cell", "server.shed", "server.dedup", "loadgen.late_tail_ms",
	"trace.overhead_frac", "trace.residual_frac",
}

// absentLayers fills the per-layer metrics a workload's traced run
// does not drive with zero.
func absentLayers(o *outcome) {
	have := map[string]bool{}
	for _, m := range o.metrics {
		have[m.Name] = true
	}
	for _, n := range perLayerMetrics {
		if !have[n] {
			o.add(metric{Name: n, Value: 0, Unit: layerUnit(n), Stat: "not traced here", Samples: 0})
		}
	}
}

// layerUnit derives a per-layer metric's unit from its name suffix.
func layerUnit(name string) string {
	switch {
	case strings.HasSuffix(name, "_s"):
		return "s"
	case strings.HasSuffix(name, "_ms"):
		return "ms"
	case strings.HasSuffix(name, "_us"), strings.HasSuffix(name, "_us_per_slot"), strings.HasSuffix(name, "_us_per_cell"):
		return "us"
	case strings.HasSuffix(name, "_ns_per_edge"):
		return "ns"
	case strings.HasSuffix(name, "_frac"):
		return "ratio"
	case strings.HasSuffix(name, "alloc_bytes_per_cell"):
		return "B"
	default:
		return "count"
	}
}

// secs, ms and us express a duration in seconds, milliseconds and
// microseconds.
func secs(d time.Duration) float64 { return d.Seconds() }
func ms(d time.Duration) float64   { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64   { return float64(d) / float64(time.Microsecond) }
