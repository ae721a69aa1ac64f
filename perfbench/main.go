// Command perfbench is the repository's benchmark: three seeded
// workloads over the planner, the serving daemon and the fleet operator,
// each checked for correct output, and a traced mode that times every
// layer from outside by recording spans around calls into its public
// functions.
//
// Run it from the repository root through run.sh, which builds it:
//
//	bash perfbench/run.sh --workload plan-sweep --seed 1 --seconds 20 --trace 0
//
// The last line of standard output is one JSON object: correct,
// attempted, failed and metrics. Untraced runs print the end-to-end
// metrics, traced runs the per-layer ones. The lines before it are a
// human-readable report that names every metric with its unit.
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

	"holmes/internal/experiments"
	"holmes/internal/fleet"
)

// The metrics the benchmark reports, with their units: untraced runs
// print the end-to-end list, traced runs the per-layer one.
// BENCHMARK.json declares the same two lists (a test checks it).
var e2eMetrics = []metricDecl{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"tail_ms", "ms"},
	{"batch_s", "s"},
	{"alloc_mb", "MB"},
	{"live_heap_mb", "MB"},
}

var layerMetrics = []metricDecl{
	{"sim.ns_per_event", "ns"}, {"sim.events", "count"},
	{"netsim.ns_per_flow", "ns"}, {"netsim.flows", "count"}, {"netsim.sim_events", "count"},
	{"pipeline.ns_per_op", "ns"}, {"pipeline.ops", "count"}, {"pipeline.idle_share", "ratio"},
	{"engine.world_ms", "ms"}, {"engine.world_hit_ratio", "ratio"},
	{"trainer.simulate_p50_ms", "ms"}, {"trainer.simulate_p90_ms", "ms"}, {"trainer.calls", "count"},
	{"core.search_p50_ms", "ms"}, {"core.search_p90_ms", "ms"},
	{"core.cells_simulated", "count"}, {"core.cells_pruned", "count"}, {"core.cells_aborted", "count"},
	{"core.useful_share", "ratio"},
	{"api.handler_p50_ms", "ms"}, {"api.handler_p99_ms", "ms"}, {"api.decode_us", "us"}, {"api.encode_us", "us"},
	{"serve.resp_hit_ratio", "ratio"}, {"serve.coalesced", "count"}, {"serve.rejected", "count"},
	{"loadgen.lag_p99_ms", "ms"}, {"loadgen.conn_wait_p99_ms", "ms"}, {"loadgen.alloc_mb", "MB"},
	{"fleet.mutate_p50_ms", "ms"}, {"fleet.mutate_p99_ms", "ms"},
	{"fleet.poll_p50_ms", "ms"}, {"fleet.poll_p99_ms", "ms"},
	{"fleet.plan_hit_ratio", "ratio"}, {"fleet.searches", "count"}, {"fleet.journal_records", "count"},
	{"fleet.journal_append_p50_us", "us"}, {"fleet.journal_append_p99_us", "us"},
	{"events.published", "count"}, {"events.evicted", "count"}, {"events.publish_us", "us"},
	{"topology.carve_us", "us"},
	{"experiments.self_s", "s"}, {"core.self_s", "s"}, {"engine.self_s", "s"}, {"trainer.self_s", "s"},
	{"pipeline.self_s", "s"}, {"netsim.self_s", "s"}, {"sim.self_s", "s"}, {"api.self_s", "s"},
	{"serve.self_s", "s"}, {"fleet.self_s", "s"}, {"events.self_s", "s"}, {"topology.self_s", "s"},
	{"traced.setup_s", "s"}, {"traced.p50_ms", "ms"}, {"traced.tail_ms", "ms"},
	{"traced.batch_s", "s"}, {"traced.alloc_mb", "MB"}, {"traced.live_heap_mb", "MB"},
}

// tracedLayers are the layers whose self time a traced run reports.
var tracedLayers = []string{"experiments", "core", "engine", "trainer", "pipeline", "netsim", "sim", "api", "serve", "fleet", "events", "topology"}

type metricDecl struct{ name, unit string }

// metricOut is one metric in the result line.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line of standard output.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

// runCfg is what every workload receives.
type runCfg struct {
	seed    int64
	seconds float64
	nproc   int
	tr      *tracer // nil in untraced runs
	scratch string  // directory for journals, inside the checkout
	// Inputs read from the checkout once, before any timing: the golden
	// Table-3 rows and the fleet12 topology.
	golden     []experiments.Row
	fleet      fleet.Spec
	fleetNodes int
}

// outcome collects a workload's results: operation counts, failed
// checks, the end-to-end metrics, the issue-named report lines and the
// per-layer metrics the workload itself measured.
type outcome struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	report            []reportLine
	layer             map[string]float64
}

type reportLine struct {
	name  string
	value float64
	unit  string
	note  string
}

func newOutcome() *outcome {
	return &outcome{e2e: map[string]float64{}, layer: map[string]float64{}}
}

// check records one output check: a false ok counts as a failed
// operation and makes the run incorrect.
func (o *outcome) check(ok bool, format string, args ...any) {
	if ok {
		return
	}
	o.failed++
	msg := fmt.Sprintf(format, args...)
	if len(o.failures) < 20 {
		o.failures = append(o.failures, msg)
	}
}

func (o *outcome) say(name string, value float64, unit, note string) {
	o.report = append(o.report, reportLine{name, value, unit, note})
}

// merge folds a reach pass or probe into o: counts and failures add up,
// per-layer metrics already present are kept, and report lines are
// prefixed with the pass's label.
func (o *outcome) merge(label string, p *outcome) {
	o.attempted += p.attempted
	o.failed += p.failed
	o.failures = append(o.failures, p.failures...)
	for k, v := range p.layer {
		if _, ok := o.layer[k]; !ok {
			o.layer[k] = v
		}
	}
	for _, r := range p.report {
		r.name = label + "." + r.name
		o.report = append(o.report, r)
	}
}

var workloads = map[string]func(runCfg) (*outcome, error){
	"plan-sweep":  planSweep,
	"serve-open":  serveOpen,
	"fleet-churn": fleetChurn,
}

func main() {
	var (
		workload = flag.String("workload", "", "plan-sweep | serve-open | fleet-churn")
		seed     = flag.Int64("seed", 1, "workload seed: the same seed generates the same inputs")
		seconds  = flag.Float64("seconds", 20, "how long the timed phase measures")
		trace    = flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	)
	flag.Parse()
	if err := run(*workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed int64, seconds float64, traced bool) error {
	fn, ok := workloads[name]
	if !ok {
		return fmt.Errorf("unknown workload %q (want plan-sweep, serve-open or fleet-churn)", name)
	}
	if seconds <= 0 {
		return fmt.Errorf("--seconds must be positive")
	}
	// The golden rows and the fleet topology are the checkout's own;
	// without them there is nothing to run or check outputs against.
	golden, err := loadGolden()
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	spec, nodes, err := loadFleet12(".")
	if err != nil {
		return fmt.Errorf("run from the repository root: %w", err)
	}
	scratch, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err != nil {
		return err
	}
	if err := os.MkdirAll(scratch, 0o755); err != nil {
		return err
	}
	cfg := runCfg{seed: seed, seconds: seconds, nproc: runtime.NumCPU(), scratch: scratch, golden: golden, fleet: spec, fleetNodes: nodes}
	if traced {
		cfg.tr = newTracer()
	}
	fmt.Printf("perfbench %s seed=%d seconds=%g trace=%v  host: %d CPUs, GOMAXPROCS=%d, %s\n",
		name, seed, seconds, traced, cfg.nproc, runtime.GOMAXPROCS(0), runtime.Version())

	out, err := fn(cfg)
	if err != nil {
		return err
	}
	metrics := map[string]metricOut{}
	decls := e2eMetrics
	if traced {
		if err := traceLayers(name, cfg, out); err != nil {
			return err
		}
		decls = layerMetrics
	}
	for _, d := range decls {
		v, ok := out.e2e[d.name]
		if traced {
			v, ok = out.layer[d.name]
		}
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s was not measured", d.name)
		}
		metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	printReport(name, out, metrics)
	if out.attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	line, err := json.Marshal(resultLine{
		Correct: out.failed == 0, Attempted: out.attempted, Failed: out.failed, Metrics: metrics,
	})
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// traceLayers completes a traced run: the fixed-seed layer probes, a
// short reach pass of each other workload for the layers this one does
// not drive, the GOMAXPROCS=1 rerun of the search corpus, the span
// self times, and the traced end-to-end numbers.
func traceLayers(name string, cfg runCfg, out *outcome) error {
	for k, v := range out.e2e {
		out.layer["traced."+k] = v
	}
	probes, err := runProbes(cfg)
	if err != nil {
		return err
	}
	out.merge("probe", probes)
	reach := map[string]func(runCfg) (*outcome, error){
		"plan-sweep":  planSweepReach,
		"serve-open":  serveOpenReach,
		"fleet-churn": fleetChurnReach,
	}
	for _, other := range []string{"plan-sweep", "serve-open", "fleet-churn"} {
		if other == name {
			continue
		}
		p, err := reach[other](cfg)
		if err != nil {
			return fmt.Errorf("%s reach pass: %w", other, err)
		}
		out.merge("reach."+other, p)
	}
	if err := checkCellsAtOneProc(cfg, out); err != nil {
		return err
	}
	self := cfg.tr.selfTimes()
	for _, l := range tracedLayers {
		out.layer[l+".self_s"] = self[l]
	}
	return cfg.tr.write(filepath.Join(".bench_build", "trace", fmt.Sprintf("%s-seed%d.jsonl", name, cfg.seed)))
}

// printReport writes the human-readable lines: every issue-named
// metric, the failures, then the metrics of the result line.
func printReport(name string, out *outcome, metrics map[string]metricOut) {
	for _, r := range out.report {
		note := ""
		if r.note != "" {
			note = "  (" + r.note + ")"
		}
		fmt.Printf("  %-28s %14.6g %-7s%s\n", r.name, r.value, r.unit, note)
	}
	share := 0.0
	if out.attempted > 0 {
		share = float64(out.failed) / float64(out.attempted)
	}
	fmt.Printf("  %-28s %14.6g %-7s  (%d of %d operations)\n", name+".failed_share", share, "ratio", out.failed, out.attempted)
	for _, f := range out.failures {
		fmt.Printf("  FAILED CHECK: %s\n", f)
	}
	names := make([]string, 0, len(metrics))
	for k := range metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, k := range names {
		fmt.Fprintf(&b, "  %-28s %14.6g %s\n", k, metrics[k].Value, metrics[k].Unit)
	}
	fmt.Print(b.String())
}

// timed runs fn inside a span and returns its wall time.
func timed(tr *tracer, layer, op string, parent int, fn func()) time.Duration {
	id := tr.begin(layer, op, parent)
	t0 := time.Now()
	fn()
	d := time.Since(t0)
	tr.end(id)
	return d
}
