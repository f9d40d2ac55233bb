// Command perfbench is the repository's end-to-end benchmark: it runs
// one named workload of the ARU runtime for a fixed wall time, checks
// the outputs, and prints every metric by name with its unit. With
// --trace 1 it instead runs the workload twice, untraced and then with a
// span at every layer boundary, and prints the per-layer metrics and the
// tracing overhead. BENCHMARK.json at the repository root lists the
// workloads and metrics; run.sh builds and runs this program:
//
//	bash perfbench/run.sh --workload chain-fast --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {value, unit}}}.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	goruntime "runtime"
	"sort"
	"strings"
	"time"
)

type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd are the metrics a timed run prints; every workload reports
// each of them (see BENCHMARK.json for the per-workload meaning).
var endToEnd = []metricDef{
	{"items_per_s", "items/s", "higher", 0.25},
	{"latency_p50_us", "us", "lower", 0.25},
	{"latency_p99_us", "us", "lower", 0.25},
	{"cpu_us_per_item", "us", "lower", 0.25},
	{"delivered_pct", "%", "higher", 0.05},
	{"rss_peak_mb", "MB", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// stages are the chains' consuming threads, in pipeline order.
var stages = []string{"relay1", "relay2", "sink"}

// perLayer are the metrics a traced run prints. A layer a workload
// bypasses does no work there and reads 0.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"runtime.put_ns_per_item", "ns", "lower", 0},
		{"runtime.get_ns_per_item", "ns", "lower", 0},
		{"runtime.sync_ns_p50", "ns", "lower", 0},
	}
	for _, s := range stages {
		defs = append(defs, metricDef{"runtime.get_wait_share." + s, "ratio", "lower", 0})
	}
	defs = append(defs, []metricDef{
		{"runtime.wall_ns_per_iteration", "ns", "lower", 0},
		{"core.source_sync_share", "ratio", "lower", 0},
		{"core.target_period_us", "us", "lower", 0},
		{"core.pace_ratio", "ratio", "lower", 0},
		{"core.aru_off_items_per_s", "items/s", "higher", 0},
		{"clock.sleeps_per_item", "count", "lower", 0},
		{"clock.sleep_requested_us_p50", "us", "lower", 0},
		{"clock.sleep_overshoot_us_p50", "us", "lower", 0},
		{"clock.sleep_overshoot_us_p99", "us", "lower", 0},
		{"clock.now_calls_per_item", "count", "lower", 0},
		{"buffer.backlog_items_p50", "items", "lower", 0},
		{"buffer.backlog_items_p99", "items", "lower", 0},
		{"buffer.skips_per_item", "count", "lower", 0},
		{"metrics.scrape_us_p50", "us", "lower", 0},
		{"tracker.run_s", "s", "lower", 0},
		{"trace.events", "count", "lower", 0},
		{"trace.analyze_s", "s", "lower", 0},
		{"trace.analyze_ns_per_event", "ns", "lower", 0},
		{"trace.skips_per_item", "count", "lower", 0},
		{"remote.put_us_p50", "us", "lower", 0},
		{"remote.put_us_p99", "us", "lower", 0},
		{"remote.get_us_p50", "us", "lower", 0},
		{"remote.get_us_p99", "us", "lower", 0},
		{"remote.wire_bytes_per_item", "B", "lower", 0},
		{"remote.dial_ms", "ms", "lower", 0},
		{"remote.reattaches", "count", "lower", 0},
		{"process.alloc_bytes_per_item", "B", "lower", 0},
		{"process.gc_cycles_per_s", "1/s", "lower", 0},
		{"gen.late_us_p99", "us", "lower", 0},
	}...)
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_ns_per_item", "ns", "lower", 0})
	}
	return append(defs, []metricDef{
		{"trace_overhead.untraced_rate", "1/s", "higher", 0},
		{"trace_overhead.traced_rate", "1/s", "higher", 0},
		{"trace_overhead.pct", "%", "lower", 0},
	}...)
}()

// layers are the span-name prefixes self time is charged to.
var layers = []string{"runtime", "clock", "metrics", "tracker", "trace", "remote", "bench"}

// runCtx is one pass of a workload: its inputs and where its numbers go.
type runCtx struct {
	workload string
	seed     int64
	seconds  time.Duration
	log      *spanLog // nil: untraced
	rep      *report
}

// report collects a pass's metrics, sample counts, output-check
// violations and op counts.
type report struct {
	vals       map[string]float64
	units      map[string]string
	samples    map[string]int64
	violations []string
	attempted  int64
	failed     int64
	// rate is the pass's headline throughput, compared between the
	// untraced and traced passes of a traced run.
	rate float64
}

func newReport() *report {
	return &report{vals: map[string]float64{}, units: map[string]string{}, samples: map[string]int64{}}
}

// set records a metric; n is its sample count (0: not a sampled
// statistic).
func (r *report) set(name string, v float64, unit string, n int64) {
	r.vals[name], r.units[name], r.samples[name] = v, unit, n
}

func (r *report) violate(format string, args ...any) {
	r.violations = append(r.violations, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(*runCtx) error{
	"chain-fast":       runChainFast,
	"chain-bottleneck": runChainBottleneck,
	"tracker-sim":      runTrackerSim,
	"remote-loopback":  runRemoteLoopback,
}

// nowNs is the benchmark's own monotonic clock, shared by generators,
// stamps and sinks.
var clockBase = time.Now()

func nowNs() int64 { return int64(time.Since(clockBase)) }

func main() {
	os.Exit(run())
}

func run() int {
	var (
		name    = flag.String("workload", "", "workload to run")
		seed    = flag.Int64("seed", 1, "input seed")
		seconds = flag.Int("seconds", 10, "measured wall seconds")
		traced  = flag.Int("trace", 0, "1: traced run printing the per-layer metrics")
	)
	flag.Parse()
	body, ok := workloads[*name]
	if !ok || *seconds < 1 || (*traced != 0 && *traced != 1) {
		names := make([]string, 0, len(workloads))
		for n := range workloads {
			names = append(names, n)
		}
		sort.Strings(names)
		fmt.Fprintf(os.Stderr, "usage: perfbench --workload {%s} --seed N --seconds S (>=1) --trace {0|1}\n", strings.Join(names, "|"))
		return 2
	}
	env := fmt.Sprintf("workload=%s seed=%d seconds=%d trace=%d go_version=%s GOMAXPROCS=%d NumCPU=%d",
		*name, *seed, *seconds, *traced, goruntime.Version(), goruntime.GOMAXPROCS(0), goruntime.NumCPU())
	fmt.Println("env", env)

	pass := func(log *spanLog) (*report, error) {
		c := &runCtx{workload: *name, seed: *seed, seconds: time.Duration(*seconds) * time.Second, log: log, rep: newReport()}
		err := body(c)
		return c.rep, err
	}
	var rep *report
	var err error
	if *traced == 0 {
		rep, err = pass(nil)
	} else {
		var plain *report
		if plain, err = pass(nil); err == nil && len(plain.violations) == 0 {
			rep, err = pass(newSpanLog())
			if err == nil {
				rep.attempted += plain.attempted
				rep.failed += plain.failed
				rep.set("trace_overhead.untraced_rate", plain.rate, "1/s", 0)
				rep.set("trace_overhead.traced_rate", rep.rate, "1/s", 0)
				rep.set("trace_overhead.pct", 100*(plain.rate-rep.rate)/plain.rate, "%", 0)
			}
		} else {
			rep = plain
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	return emit(rep, *traced == 1)
}

// emit prints the summary and the result line. A failed output check
// fails the run: its numbers are not printed as a result.
func emit(rep *report, traced bool) int {
	if rep.attempted == 0 {
		rep.violate("no operation was attempted")
	}
	names := make([]string, 0, len(rep.vals))
	for n := range rep.vals {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		if len(rep.violations) > 0 {
			break
		}
		line := fmt.Sprintf("metric %-34s %14.4f %s", n, rep.vals[n], rep.units[n])
		if s := rep.samples[n]; s > 0 {
			line += fmt.Sprintf(" (n=%d)", s)
		}
		fmt.Println(line)
	}
	for _, v := range rep.violations {
		fmt.Println("CHECK FAILED:", v)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int64            `json:"attempted"`
		Failed    int64            `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{Correct: len(rep.violations) == 0, Attempted: max(rep.attempted, 1), Failed: rep.failed, Metrics: map[string]value{}}
	if out.Correct {
		defs := endToEnd
		if traced {
			defs = perLayer
		}
		for _, d := range defs {
			v, ok := rep.vals[d.Name]
			if !ok && !traced {
				fmt.Fprintln(os.Stderr, "perfbench: end-to-end metric not measured:", d.Name)
				return 1
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", d.Name, v)
				return 1
			}
			out.Metrics[d.Name] = value{v, d.Unit}
		}
	}
	b, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(b))
	if !out.Correct {
		return 1
	}
	return 0
}
