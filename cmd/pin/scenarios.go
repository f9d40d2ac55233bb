package main

import (
	"encoding/json"
	"fmt"
	"time"

	"repro/internal/scenario"
)

// The scenarios suite runs the seeded scenario matrix — generated
// pipeline DAGs × adversarial load shapes × estimator variants — on the
// discrete-event clock. Every cell is bit-reproducible across machines,
// so it is the one exact suite: a cell passes only if its metric
// snapshot is byte-identical to the pin, catching ANY behavioural drift
// in the runtime, the estimators or the generator.
const (
	scenarioSeed     = 1719 // generator seed of a new pin
	scenarioDuration = 4 * time.Second
)

type scenariosReport struct {
	envelope
	Seed  uint64                 `json:"seed"`
	Cells []scenario.CellMetrics `json:"cells"`
}

func newScenariosReport() *scenariosReport { return &scenariosReport{Seed: scenarioSeed} }

func (r *scenariosReport) cells() *[]scenario.CellMetrics { return &r.Cells }

// matrix enumerates the pinned cells: every topology × load shape for
// both estimators, plus failure-injection cells that exercise the
// supervision path on one topology per estimator.
func (r *scenariosReport) matrix() []scenario.CellMetrics {
	var cells []scenario.CellMetrics
	cell := func(topo, shape, est string, failures int, drain, elastic bool) {
		cells = append(cells, scenario.CellMetrics{Topology: topo, Shape: shape, Estimator: est,
			Failures: failures, DrainMode: drain, ElasticMode: elastic})
	}
	for _, topo := range scenario.TopologyNames {
		for _, shape := range scenario.ShapeNames {
			for _, est := range []string{"raw", "aimd"} {
				cell(topo, shape, est, 0, false, false)
			}
		}
	}
	cell("chain", "steady", "raw", 2, false, false)
	cell("chain", "steady", "aimd", 2, false, false)
	cell("diamond", "onoff", "raw", 1, false, false)
	cell("diamond", "onoff", "aimd", 1, false, false)
	// One drain-mode cell per topology: the run ends with a graceful
	// Runtime.Drain at 3/4 of the duration instead of a hard stop, and
	// the pin covers the drain accounting (drained/shed/clean/duration).
	// On the virtual clock a drain is bit-reproducible like everything
	// else — these cells are the regression oracle for that contract.
	for _, topo := range scenario.TopologyNames {
		cell(topo, "steady", "aimd", 0, true, false)
	}
	// One elastic cell per topology: the internal/sched control loop
	// supervises the relay stages and replicates the elected bottleneck.
	// The flash shape gives it something to react to (a load spike mid-
	// run); the pin covers the scale schedule (ups/downs/final replicas)
	// alongside the usual metrics, so any drift in the scheduler's
	// sensor, election, or hysteresis shows up as a cell mismatch.
	for _, topo := range scenario.TopologyNames {
		cell(topo, "flash", "aimd", 0, false, true)
	}
	return cells
}

func (r *scenariosReport) key(c scenario.CellMetrics) string { return diffKey(c) + "/" + c.Estimator }

// diffKey identifies a cell up to the estimator: the unit the AIMD
// differential compares across. Drain and elastic cells carry a suffix
// so they never collide with (and are never compared against) the
// plain runs of the same coordinate.
func diffKey(c scenario.CellMetrics) string {
	suffix := ""
	switch {
	case c.DrainMode:
		suffix = "/drain"
	case c.ElasticMode:
		suffix = "/elastic"
	}
	return fmt.Sprintf("%s/%s/f%d%s", c.Topology, c.Shape, c.Failures, suffix)
}

// measure generates and runs one cell with the live metrics registry
// attached, so the pin also covers the metrics-series count (the
// deterministic proxy for metrics-subsystem overhead; behavioral
// neutrality is asserted separately in the scenario test suite).
func (r *scenariosReport) measure(c scenario.CellMetrics) (scenario.CellMetrics, error) {
	p := scenario.DefaultParams(r.Seed, c.Topology, c.Shape)
	p.Duration = scenarioDuration
	p.Failures = c.Failures
	spec, err := scenario.Generate(p)
	if err != nil {
		return c, fmt.Errorf("generate: %w", err)
	}
	cm, err := scenario.Run(spec, scenario.RunConfig{Estimator: c.Estimator, Metrics: true, Drain: c.DrainMode, Elastic: c.ElasticMode})
	if err != nil {
		return c, fmt.Errorf("run: %w", err)
	}
	return *cm, nil
}

// bar demands the byte-identical metric snapshot.
func (r *scenariosReport) bar(got, pin scenario.CellMetrics) error {
	a, err := json.Marshal(got)
	if err != nil {
		return err
	}
	b, err := json.Marshal(pin)
	if err != nil {
		return err
	}
	if string(a) != string(b) {
		return fmt.Errorf("\n    got  %s\n    want %s", a, b)
	}
	return nil
}

// invariants holds the matrix-wide AIMD differential: damping must not
// cost drops in any cell. Pinned numbers age, the inequality does not.
func (r *scenariosReport) invariants() []error {
	raw := map[string]int{}
	for _, c := range r.Cells {
		if c.Estimator == "raw" {
			raw[diffKey(c)] = c.Drops
		}
	}
	var errs []error
	for _, c := range r.Cells {
		if d, ok := raw[diffKey(c)]; ok && c.Estimator == "aimd" && c.Drops > d {
			errs = append(errs, fmt.Errorf("AIMD differential %s: aimd dropped %d > raw %d", diffKey(c), c.Drops, d))
		}
	}
	return errs
}

func (r *scenariosReport) header() string {
	return fmt.Sprintf("%-8s %-7s %-5s %6s %9s %9s %6s %7s %10s %9s %8s",
		"topology", "shape", "est", "fail", "produced", "emitted", "drops", "ratio", "mu_mean_B", "putp99ms", "restarts")
}

func (r *scenariosReport) row(c scenario.CellMetrics) string {
	return fmt.Sprintf("%-8s %-7s %-5s %6d %9d %9d %6d %7.3f %10.0f %9.2f %8d",
		c.Topology, c.Shape, c.Estimator, c.Failures, c.Produced, c.Emitted,
		c.Drops, c.DropRatio, c.MUMeanBytes, c.PutWaitP99Ms, c.Restarts)
}
