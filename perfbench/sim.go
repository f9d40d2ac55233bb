package main

import (
	"fmt"
	goruntime "runtime"
	"time"

	"repro/internal/core"
	"repro/internal/trace"
	"repro/internal/tracker"
)

const (
	// simVirtual is one tracker-sim repetition's virtual run, five times
	// the paper's two minutes. At about a second of wall time on 2 CPUs
	// a run holds about ten repetitions, whose median steadies the wall
	// clock figures against a noisy machine.
	simVirtual = 600 * time.Second
	simWarmup  = 30 * time.Second
	simHosts   = 5
	// simSetupReps extra constructions steady the setup median: one
	// tracker.New takes only tens of µs.
	simSetupReps = 100
)

func newTracker(c *runCtx) (*tracker.App, time.Duration, error) {
	tr := c.log.threadTracer("main")
	tr.begin(spTrackNew)
	t0 := time.Now()
	app, err := tracker.New(tracker.Config{Hosts: simHosts, Seed: c.seed, Policy: core.PolicyMin()})
	d := time.Since(t0)
	tr.end()
	if err != nil {
		return nil, 0, fmt.Errorf("tracker.New: %w", err)
	}
	return app, d, nil
}

// runTrackerSim repeats the simVirtual tracker run on the virtual clock
// until c.seconds of wall time have passed, pooling the repetitions.
// Every repetition uses the same seed: the inputs are identical and
// only the goroutine schedule differs between them.
func runTrackerSim(c *runCtx) error {
	rep := c.rep
	tr := c.log.threadTracer("main")
	var setups []float64
	// Apps built only to time construction; they never start.
	for i := 0; i < simSetupReps; i++ {
		_, d, err := newTracker(c)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}

	lat := newHist()
	var (
		outputs, total, ok, wasted, skips, events, iters int64
		runOnly, analyze                                 time.Duration
		fps, rates, cpus, speeds, runS, analyzeS         []float64
		reps                                             int
		win                                              procWindow
	)
	win.start()
	for start := time.Now(); reps == 0 || time.Since(start) < c.seconds; reps++ {
		// Each repetition starts from a collected heap, so its peak RSS
		// and GC work do not depend on when the last one's garbage goes.
		goruntime.GC()
		app, d, err := newTracker(c)
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
		cpu0, t0 := cpuTime(), time.Now()
		tr.begin(spTrackRun)
		a, err := app.Run(simVirtual, simWarmup)
		tr.end()
		w := time.Since(t0)
		cpuRun := cpuTime() - cpu0
		if err != nil {
			return fmt.Errorf("tracker run: %w", err)
		}
		rep.attempted++
		if a.ItemsSuccessful+a.ItemsWasted != a.ItemsTotal {
			rep.violate("analysis: successful %d + wasted %d != total %d", a.ItemsSuccessful, a.ItemsWasted, a.ItemsTotal)
		}
		if a.Outputs <= 0 || len(a.Latencies) != a.Outputs {
			rep.violate("analysis: %d outputs with %d latencies", a.Outputs, len(a.Latencies))
		}
		outputs += int64(a.Outputs)
		total += int64(a.ItemsTotal)
		ok += int64(a.ItemsSuccessful)
		wasted += int64(a.ItemsWasted)
		skips += int64(a.Skips)
		fps = append(fps, a.ThroughputFPS)
		rates = append(rates, float64(a.Outputs)/w.Seconds())
		cpus = append(cpus, float64(cpuRun.Microseconds())/float64(a.ItemsTotal))
		speeds = append(speeds, simVirtual.Seconds()/w.Seconds())
		for _, l := range a.Latencies {
			lat.add(int64(l))
		}
		if c.log == nil {
			continue
		}
		// App.Run analyzes too; a second, timed Analyze of the same
		// trace splits Run into simulation and analysis.
		tr.begin(spAnalyze)
		t1 := time.Now()
		a2, err := trace.Analyze(app.Recorder, trace.AnalyzeOptions{From: simWarmup, To: simVirtual})
		ad := time.Since(t1)
		tr.end()
		if err != nil {
			return fmt.Errorf("analyze: %w", err)
		}
		if a2.Outputs != a.Outputs || a2.ItemsTotal != a.ItemsTotal {
			rep.violate("re-analysis disagrees: %d/%d outputs, %d/%d items", a2.Outputs, a.Outputs, a2.ItemsTotal, a.ItemsTotal)
		}
		analyze += ad
		runOnly += w - ad
		analyzeS = append(analyzeS, ad.Seconds())
		runS = append(runS, (w - ad).Seconds())
		events += int64(app.Recorder.Len())
		for _, ev := range app.Recorder.Events() {
			if ev.Kind == trace.EvIter {
				iters++
			}
		}
	}
	win.stop()
	if total == 0 || outputs == 0 {
		rep.violate("tracker produced no items")
		return nil
	}
	// Rates and per-item costs are medians over the repetitions, so one
	// disturbed repetition does not move the result.
	rep.rate = median(speeds)
	rep.set("sim_speed_x", rep.rate, "x", int64(reps))
	rep.set("output_fps", median(fps), "1/s", int64(reps))
	rep.set("items_per_s", median(rates), "items/s", outputs)
	p50, err := requireTail(lat, 50, "latency")
	if err != nil {
		return err
	}
	p99, err := requireTail(lat, 99, "latency")
	if err != nil {
		return err
	}
	rep.set("latency_p50_us", p50/1e3, "us", lat.n)
	rep.set("latency_p99_us", p99/1e3, "us", lat.n)
	rep.set("cpu_us_per_item", median(cpus), "us", int64(reps))
	rep.set("delivered_pct", 100*float64(ok)/float64(total), "%", 0)
	rep.set("wasted_items_pct", 100*float64(wasted)/float64(total), "%", 0)
	win.report(rep, float64(total), setups)
	if c.log == nil {
		return nil
	}
	rep.set("tracker.run_s", median(runS), "s", int64(len(runS)))
	rep.set("runtime.wall_ns_per_iteration", float64(runOnly)/float64(iters), "ns", iters)
	rep.set("trace.events", float64(events)/float64(reps), "count", int64(reps))
	rep.set("trace.analyze_s", median(analyzeS), "s", int64(len(analyzeS)))
	rep.set("trace.analyze_ns_per_event", float64(analyze)/float64(events), "ns", events)
	rep.set("trace.skips_per_item", float64(skips)/float64(total), "count", 0)
	set := c.log.collect()
	for l, ns := range layerSelf(set, 0, c.log.now()) {
		rep.set(l+".self_ns_per_item", float64(ns)/float64(total), "ns", 0)
	}
	return writeSpans(c, set)
}
