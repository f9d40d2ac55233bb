package main

import (
	"errors"
	"fmt"
	"math"
	"strings"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/rand"
	rt "repro/internal/runtime"
	"repro/internal/vt"
)

// The aru suite benchmarks the estimator pipeline end to end: a fast
// producer paced purely by STP feedback against a bottleneck consumer,
// run once with raw summary propagation (the paper's behaviour) and once
// with the AIMD estimator, across steady, jittery and stepped consumer
// load shapes. Everything runs on the discrete-event virtual clock with
// a seeded jitter source, so a cell is deterministic up to goroutine
// interleaving and costs milliseconds of wall time per virtual minute.
//
// Per cell it reports the steady-state pacing interval (mean and
// standard deviation — the source-rate jitter), the drop ratio (items a
// Latest-semantics consumer skipped over), and the convergence time (when
// the paced interval first enters and stays inside the steady band).
const (
	aruSeconds = 60   // virtual seconds per cell of a new pin
	aruSeed    = 1719 // jitter PRNG seed of a new pin

	bottleneck = 50 * time.Millisecond // the consumer's mean period
	jitterAmp  = 30 * time.Millisecond // uniform ± amplitude in the jitter shape

	// aruSlack is the fractional regression a cell's jitter and
	// convergence bars allow over the pin.
	aruSlack = 0.30
)

type aruCell struct {
	Scenario       string  `json:"scenario"`  // steady | jitter | step
	Estimator      string  `json:"estimator"` // raw | aimd
	Produced       int64   `json:"produced"`
	Consumed       int64   `json:"consumed"`
	DropRatio      float64 `json:"drop_ratio"`
	MeanIntervalMs float64 `json:"mean_interval_ms"`
	JitterMs       float64 `json:"jitter_ms"`
	ConvergenceS   float64 `json:"convergence_s"`
}

type aruReport struct {
	envelope
	Seconds float64   `json:"virtual_seconds"`
	Seed    uint64    `json:"seed"`
	Results []aruCell `json:"results"`
}

func newAruReport() *aruReport { return &aruReport{Seconds: aruSeconds, Seed: aruSeed} }

func (r *aruReport) cells() *[]aruCell { return &r.Results }

func (r *aruReport) matrix() []aruCell {
	var cells []aruCell
	for _, sc := range []string{"steady", "jitter", "step"} {
		for _, est := range []string{"raw", "aimd"} {
			cells = append(cells, aruCell{Scenario: sc, Estimator: est})
		}
	}
	return cells
}

func (r *aruReport) key(c aruCell) string { return c.Scenario + "/" + c.Estimator }

// bar allows each metric a margin over its pin. Absolute floors keep
// near-zero pins (steady-state jitter is fractions of a millisecond)
// from demanding exact reproduction.
func (r *aruReport) bar(got, pin aruCell) error {
	var misses []string
	if b := pin.JitterMs*(1+aruSlack) + 0.5; got.JitterMs > b {
		misses = append(misses, fmt.Sprintf("jitter %.2fms above %.2f", got.JitterMs, b))
	}
	if b := pin.DropRatio + 0.02; got.DropRatio > b {
		misses = append(misses, fmt.Sprintf("drop ratio %.3f above %.3f", got.DropRatio, b))
	}
	if b := pin.ConvergenceS*(1+aruSlack) + 0.5; got.ConvergenceS > b {
		misses = append(misses, fmt.Sprintf("convergence %.2fs above %.2f", got.ConvergenceS, b))
	}
	if len(misses) > 0 {
		return errors.New(strings.Join(misses, "; "))
	}
	return nil
}

// invariants holds the claim the estimator exists for: under the jittery
// consumer, AIMD damping buys at least 2x lower source-rate jitter
// without costing drops.
func (r *aruReport) invariants() []error {
	var raw, aimd aruCell
	for _, c := range r.Results {
		switch r.key(c) {
		case "jitter/raw":
			raw = c
		case "jitter/aimd":
			aimd = c
		}
	}
	var errs []error
	if aimd.JitterMs*2 > raw.JitterMs {
		errs = append(errs, fmt.Errorf("jitter/aimd jitter %.2fms not 2x below jitter/raw %.2fms", aimd.JitterMs, raw.JitterMs))
	}
	if aimd.DropRatio > raw.DropRatio+0.02 {
		errs = append(errs, fmt.Errorf("jitter/aimd drop ratio %.3f worse than jitter/raw %.3f", aimd.DropRatio, raw.DropRatio))
	}
	return errs
}

func (r *aruReport) header() string {
	return fmt.Sprintf("%-8s %-6s %9s %9s %7s %10s %10s %11s",
		"scenario", "est", "produced", "consumed", "drop%", "mean(ms)", "jitter(ms)", "converge(s)")
}

func (r *aruReport) row(c aruCell) string {
	return fmt.Sprintf("%-8s %-6s %9d %9d %6.1f%% %10.2f %10.2f %11.2f",
		c.Scenario, c.Estimator, c.Produced, c.Consumed,
		100*c.DropRatio, c.MeanIntervalMs, c.JitterMs, c.ConvergenceS)
}

// consumerPeriod yields the consumer's compute period for one iteration
// of the given load shape. The jitter source is the shared seeded
// xorshift64 (internal/rand), whose stream BENCH_aru.json was measured
// under.
func consumerPeriod(scenario string, rng *rand.Rand, now, total time.Duration) time.Duration {
	switch scenario {
	case "jitter":
		// Uniform on [bottleneck-amp, bottleneck+amp].
		span := 2 * int64(jitterAmp)
		return bottleneck - jitterAmp + time.Duration(int64(rng.Uint64()%uint64(span)))
	case "step":
		// Bottleneck for the first half, twice that for the second: the
		// estimator must track a structural slowdown, not smooth it away.
		if now < total/2 {
			return bottleneck
		}
		return 2 * bottleneck
	}
	return bottleneck // steady
}

// measure runs one cell: src -> channel -> consumer on the virtual
// clock, the source paced purely by feedback, and derives the cell's
// statistics from the source's put timestamps.
func (r *aruReport) measure(c aruCell) (aruCell, error) {
	scenario := c.Scenario
	total := time.Duration(r.Seconds * float64(time.Second))
	clk := clock.NewVirtual()
	policy := core.PolicyMin()
	switch c.Estimator {
	case "raw":
	case "aimd":
		policy = policy.WithEstimator(core.AIMDFactory(core.DefaultAIMDConfig()))
	default:
		return c, fmt.Errorf("unknown estimator %q", c.Estimator)
	}
	run := rt.New(rt.Options{Clock: clk, ARU: policy})
	ch := run.MustAddChannel("C", 0)

	var putTimes []time.Duration
	var consumed int64
	src := run.MustAddThread("src", 0, func(ctx *rt.Ctx) error {
		out := ctx.Outs()[0]
		var ts vt.Timestamp
		for !ctx.Stopped() {
			ts++
			ctx.Compute(2 * time.Millisecond)
			if err := ctx.Put(out, ts, nil, 64); err != nil {
				return err
			}
			putTimes = append(putTimes, clk.Now())
			ctx.Sync()
		}
		return nil
	})
	cons := run.MustAddThread("cons", 0, func(ctx *rt.Ctx) error {
		in := ctx.Ins()[0]
		rng := rand.New(r.Seed)
		for {
			if _, err := ctx.GetLatest(in); err != nil {
				return err
			}
			consumed++
			ctx.Compute(consumerPeriod(scenario, rng, clk.Now(), total))
			ctx.Sync()
		}
	})
	src.MustOutput(ch)
	cons.MustInput(ch)
	if err := run.RunFor(total); err != nil {
		return c, err
	}

	res := aruCell{
		Scenario:  scenario,
		Estimator: c.Estimator,
		Produced:  int64(len(putTimes)),
		Consumed:  consumed,
	}
	if res.Produced > 0 {
		res.DropRatio = 1 - float64(res.Consumed)/float64(res.Produced)
	}
	intervals, starts := intervalsOf(putTimes)
	if len(intervals) == 0 {
		return res, nil
	}

	// Steady-state statistics over the second half of the run: past any
	// cold-start transient, and for the step shape entirely inside the
	// post-step regime, so its convergence number measures how fast the
	// pacing tracked the structural slowdown.
	warmup := total / 2
	var steady []float64
	for i, at := range starts {
		if at >= warmup {
			steady = append(steady, intervals[i])
		}
	}
	if len(steady) == 0 {
		steady = intervals
	}
	mean, std := meanStd(steady)
	res.MeanIntervalMs = mean / float64(time.Millisecond)
	res.JitterMs = std / float64(time.Millisecond)
	res.ConvergenceS = convergence(intervals, starts, mean, total).Seconds()
	return res, nil
}

// intervalsOf converts put timestamps to (interval, interval-start)
// pairs, in clock units.
func intervalsOf(times []time.Duration) (intervals []float64, starts []time.Duration) {
	for i := 1; i < len(times); i++ {
		intervals = append(intervals, float64(times[i]-times[i-1]))
		starts = append(starts, times[i-1])
	}
	return intervals, starts
}

func meanStd(xs []float64) (mean, std float64) {
	for _, x := range xs {
		mean += x
	}
	mean /= float64(len(xs))
	for _, x := range xs {
		std += (x - mean) * (x - mean)
	}
	return mean, math.Sqrt(std / float64(len(xs)))
}

// convergence finds when the paced interval settled: the start time of
// the first 8-interval window whose rolling mean is within 10% of the
// steady mean and stays within 25% for every later window. If pacing
// never settles the full run length is reported — raw propagation under
// heavy jitter legitimately never converges by this definition.
func convergence(intervals []float64, starts []time.Duration, steadyMean float64, total time.Duration) time.Duration {
	const w = 8
	if len(intervals) < w || steadyMean <= 0 {
		return total
	}
	roll := make([]float64, 0, len(intervals)-w+1)
	sum := 0.0
	for i, x := range intervals {
		sum += x
		if i >= w {
			sum -= intervals[i-w]
		}
		if i >= w-1 {
			roll = append(roll, sum/w)
		}
	}
	// bad: index of the last window violating the wide band, +1.
	bad := len(roll)
	for i := len(roll) - 1; i >= 0; i-- {
		if math.Abs(roll[i]-steadyMean) > 0.25*steadyMean {
			break
		}
		bad = i
	}
	for i := bad; i < len(roll); i++ {
		if math.Abs(roll[i]-steadyMean) <= 0.10*steadyMean {
			return starts[i]
		}
	}
	return total
}
