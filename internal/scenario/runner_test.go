package scenario

import (
	"encoding/json"
	"testing"
	"time"
)

// runCell generates and runs one cell, failing the test on any error.
func runCell(t *testing.T, p Params, cfg RunConfig) *CellMetrics {
	t.Helper()
	spec, err := Generate(p)
	if err != nil {
		t.Fatalf("generate: %v", err)
	}
	cm, err := Run(spec, cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return cm
}

func TestRunChainSteady(t *testing.T) {
	cm := runCell(t, DefaultParams(1719, "chain", "steady"), RunConfig{})
	if cm.Produced == 0 {
		t.Fatal("source produced nothing")
	}
	if cm.Emitted == 0 {
		t.Fatal("sink emitted nothing")
	}
	if cm.Gets == 0 {
		t.Fatal("no consumptions recorded")
	}
	if cm.ThroughputFPS <= 0 {
		t.Fatalf("throughput %v must be positive", cm.ThroughputFPS)
	}
	if cm.MUMeanBytes <= 0 {
		t.Fatalf("MU mean %v must be positive", cm.MUMeanBytes)
	}
	if cm.DropRatio < 0 || cm.DropRatio > 1 {
		t.Fatalf("drop ratio %v out of [0,1]", cm.DropRatio)
	}
	if cm.Restarts != 0 {
		t.Fatalf("no failures injected but %d restarts", cm.Restarts)
	}
}

// TestRunMatrixSmoke drives every (topology, shape) cell briefly: each
// must start, flow items end to end, and stop cleanly.
func TestRunMatrixSmoke(t *testing.T) {
	for _, topo := range TopologyNames {
		for _, shape := range ShapeNames {
			p := DefaultParams(1719, topo, shape)
			p.Duration = 2 * time.Second
			cm := runCell(t, p, RunConfig{})
			if cm.Emitted == 0 {
				t.Fatalf("%s/%s: no outputs", topo, shape)
			}
		}
	}
}

func TestRunBoundedQueueMeasuresPutWaits(t *testing.T) {
	// Tight queues and an overloaded relay: some puts must gate.
	p := DefaultParams(3, "chain", "onoff")
	p.QueueCapMin, p.QueueCapMax = 2, 2
	p.CostMin, p.CostMax = 12*time.Millisecond, 20*time.Millisecond
	cm := runCell(t, p, RunConfig{})
	if cm.PutWaits == 0 {
		t.Fatal("no put-wait samples collected")
	}
	if cm.PutWaitP99Ms < 0 {
		t.Fatalf("negative put-wait p99 %v", cm.PutWaitP99Ms)
	}
}

func TestRunFailureInjection(t *testing.T) {
	p := DefaultParams(11, "chain", "steady")
	p.Failures = 2
	cm := runCell(t, p, RunConfig{})
	if cm.Restarts == 0 {
		t.Fatal("injected failures produced no supervised restarts")
	}
	if cm.Emitted == 0 {
		t.Fatal("pipeline never recovered after injected failures")
	}
}

// TestRunMetricsNeutral asserts the live metrics subsystem is
// behavior-neutral: a cell run with a live registry yields exactly the
// same outcome metrics as the same cell with metrics off. This is the
// deterministic stand-in for "metrics-subsystem overhead per cell":
// the overhead is pure instrument-update cost (pinned per-op in
// EXPERIMENTS.md), never a behavioral drift.
func TestRunMetricsNeutral(t *testing.T) {
	p := DefaultParams(1719, "diamond", "sine")
	p.Duration = 3 * time.Second
	off := runCell(t, p, RunConfig{})
	on := runCell(t, p, RunConfig{Metrics: true})
	if on.MetricsSeries <= 0 {
		t.Fatalf("metrics-on run reports %d series", on.MetricsSeries)
	}
	on.MetricsSeries = off.MetricsSeries // the only field allowed to differ
	a, _ := json.Marshal(off)
	b, _ := json.Marshal(on)
	if string(a) != string(b) {
		t.Fatalf("metrics changed the run outcome:\noff: %s\non:  %s", a, b)
	}
}

// TestRunAIMDNoWorseDropsSpotCheck is the in-package version of the
// matrix-wide differential cmd/pin scenarios enforces: under the bursty
// shape, the AIMD estimator must not drop more than raw propagation.
func TestRunAIMDNoWorseDropsSpotCheck(t *testing.T) {
	p := DefaultParams(1719, "chain", "onoff")
	raw := runCell(t, p, RunConfig{Estimator: "raw"})
	aimd := runCell(t, p, RunConfig{Estimator: "aimd"})
	if aimd.Drops > raw.Drops {
		t.Fatalf("AIMD dropped more than raw: %d > %d", aimd.Drops, raw.Drops)
	}
}

func TestRunRejectsUnknownEstimator(t *testing.T) {
	spec, err := Generate(DefaultParams(1, "chain", "steady"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(spec, RunConfig{Estimator: "oracle"}); err == nil {
		t.Fatal("unknown estimator accepted")
	}
}
