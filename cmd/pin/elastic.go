package main

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/tracker"
)

// The elastic suite is the elastic-recovery experiment. One color model
// (target-detect-1) has its per-frame compute multiplied by the hot
// factor — the "content blew up one kernel" failure the elastic
// scheduler exists for — and the tracker is measured three ways on the
// virtual clock:
//
//	balanced:     stock timing, no scheduler   (the reference fps)
//	hot:          hot stage, no scheduler      (the damage)
//	hot-elastic:  hot stage + elastic scheduler (the recovery)
const (
	// Run parameters of a new pin.
	elasticSeconds   = 60
	elasticWarmup    = 10
	elasticSeed      = 42
	elasticHotFactor = 3

	elasticHosts = 1
	// elasticSlack is the fractional fps regression a cell's floor (and
	// the hot cell's ceiling) allows around the pin.
	elasticSlack = 0.30
)

type hotCell struct {
	Name         string  `json:"name"` // balanced | hot | hot-elastic
	FPS          float64 `json:"fps"`
	Outputs      int     `json:"outputs"`
	LatencyP50Ms float64 `json:"latency_p50_ms"`
	ScaleUps     int64   `json:"scale_ups"`
	ScaleDowns   int64   `json:"scale_downs"`
	// ReplicasEnd is the detectors' live replica count at the
	// scheduler's final tick before the run ended.
	ReplicasEnd int `json:"replicas_end"`
}

type elasticReport struct {
	envelope
	Seconds   float64   `json:"virtual_seconds"`
	Warmup    float64   `json:"warmup_seconds"`
	Seed      int64     `json:"seed"`
	HotFactor float64   `json:"hot_factor"`
	Cells     []hotCell `json:"cells"`
	// RecoveryRatio is fps(hot-elastic) / fps(balanced) — the number the
	// scheduler is judged by.
	RecoveryRatio float64 `json:"recovery_ratio"`
}

func newElasticReport() *elasticReport {
	return &elasticReport{Seconds: elasticSeconds, Warmup: elasticWarmup, Seed: elasticSeed, HotFactor: elasticHotFactor}
}

func (r *elasticReport) cells() *[]hotCell { return &r.Cells }

func (r *elasticReport) matrix() []hotCell {
	return []hotCell{{Name: "balanced"}, {Name: "hot"}, {Name: "hot-elastic"}}
}

func (r *elasticReport) key(c hotCell) string { return c.Name }

// bar is one-sided on fps with a small absolute floor; the hot cell is
// also barred from above — if the "damaged" run got fast, the
// experiment stopped inducing a bottleneck.
func (r *elasticReport) bar(got, pin hotCell) error {
	if floor := pin.FPS*(1-elasticSlack) - 0.1; got.FPS < floor {
		return fmt.Errorf("%.2f fps below the floor %.2f", got.FPS, floor)
	}
	if ceil := pin.FPS*(1+elasticSlack) + 0.1; got.Name == "hot" && got.FPS > ceil {
		return fmt.Errorf("%.2f fps above the damage ceiling %.2f: the hot stage is no longer hot", got.FPS, ceil)
	}
	return nil
}

// invariants are the claims the scheduler exists for: the elastic run
// recovers at least 90% of the balanced throughput, beats the unaided
// hot run by 1.5x, and actually scaled (the recovery is the scheduler's
// doing, not noise).
func (r *elasticReport) invariants() []error {
	by := map[string]hotCell{}
	for _, c := range r.Cells {
		by[c.Name] = c
	}
	balanced, hot, elastic := by["balanced"], by["hot"], by["hot-elastic"]
	var errs []error
	if balanced.FPS > 0 {
		r.RecoveryRatio = elastic.FPS / balanced.FPS
		if r.RecoveryRatio < 0.90 {
			errs = append(errs, fmt.Errorf("recovery ratio %.3f below 0.90 (elastic %.2f fps vs balanced %.2f)",
				r.RecoveryRatio, elastic.FPS, balanced.FPS))
		}
	}
	if hot.FPS > 0 && elastic.FPS < 1.5*hot.FPS {
		errs = append(errs, fmt.Errorf("hot-elastic %.2f fps not 1.5x above unaided hot %.2f: the scheduler did not help",
			elastic.FPS, hot.FPS))
	}
	if elastic.ScaleUps == 0 {
		errs = append(errs, errors.New("hot-elastic never scaled up: the recovery is not the scheduler's doing"))
	}
	return errs
}

func (r *elasticReport) header() string {
	return fmt.Sprintf("%-12s %7s %8s %12s %9s %11s %9s",
		"cell", "fps", "outputs", "p50-lat(ms)", "scale-ups", "scale-downs", "replicas")
}

func (r *elasticReport) row(c hotCell) string {
	return fmt.Sprintf("%-12s %7.2f %8d %12.0f %9d %11d %9d",
		c.Name, c.FPS, c.Outputs, c.LatencyP50Ms, c.ScaleUps, c.ScaleDowns, c.ReplicasEnd)
}

// elasticConfig is the scheduler configuration the experiment uses:
// defend a 250ms detector period — comfortably above both stock
// detector costs (185/205ms ± log-normal noise), far below the induced
// hot cost — and scale only the two detection kernels, the tracker's
// data-parallel stages. The margin matters: a target inside a stage's
// noise band parks that stage at the hysteresis edge, where even
// sustain counters eventually admit a flap.
func elasticConfig() sched.Config {
	return sched.Config{
		TargetPeriod: 250 * time.Millisecond,
		Stages:       []string{"target-detect-1", "target-detect-2"},
		// The tracker's periods swing hard (complexity walk ±18%,
		// log-normal noise, shared-bus pressure from every extra
		// incarnation), so retirement demands 2x headroom: a replica is
		// only released if the projected period without it stays under
		// half the target. The default 0.9 band — right for low-variance
		// pipelines — would breathe at this noise level.
		DownBand: 0.5,
	}
}

// measure runs one configuration for the report's virtual seconds.
func (r *elasticReport) measure(c hotCell) (hotCell, error) {
	cfg := tracker.Config{
		Hosts:     elasticHosts,
		Seed:      r.Seed,
		Policy:    core.PolicyMin(),
		Collector: gc.NewDeadTimestamp(),
	}
	if c.Name != "balanced" {
		cfg.HotFactor = r.HotFactor
	}
	var reg *metrics.Registry
	if c.Name == "hot-elastic" {
		ec := elasticConfig()
		cfg.Elastic = &ec
		reg = metrics.NewRegistry()
		cfg.Metrics = reg
	}
	app, err := tracker.New(cfg)
	if err != nil {
		return c, fmt.Errorf("build: %w", err)
	}
	a, err := app.Run(time.Duration(r.Seconds*float64(time.Second)), time.Duration(r.Warmup*float64(time.Second)))
	if err != nil {
		return c, fmt.Errorf("run: %w", err)
	}
	cell := hotCell{
		Name:         c.Name,
		FPS:          a.ThroughputFPS,
		Outputs:      a.Outputs,
		LatencyP50Ms: float64(a.LatencyP50) / float64(time.Millisecond),
	}
	if reg != nil {
		for _, stage := range []string{"target-detect-1", "target-detect-2"} {
			ls := metrics.Labels{"stage": stage}
			cell.ScaleUps += reg.Counter(sched.MetricScaleUps, "", ls).Value()
			cell.ScaleDowns += reg.Counter(sched.MetricScaleDowns, "", ls).Value()
			// The gauge holds the scheduler's last-tick count — the live
			// registry itself has already drained by the time Run returns.
			cell.ReplicasEnd += int(reg.Gauge(sched.MetricReplicas, "", ls).Value())
		}
	}
	return cell, nil
}
