package main

import (
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	rt "repro/internal/runtime"
	"repro/internal/vt"
)

// The throughput suite measures sustained items/second through the full
// runtime put/get path — pool, batch entry points, STP piggyback — for
// every in-process backend. Absolute items/s do not carry across
// machines, so the pin is taken on the machine that checks it.
const (
	// throughputItems is the item count per cell of a new pin; -check
	// uses each pinned cell's own count.
	throughputItems = 500_000
	// throughputBound is the one-sided bar: a cell fails below
	// (1-throughputBound) of its pinned items/s. Scheduler noise on
	// shared machines only ever slows a cell.
	throughputBound = 0.5
)

type throughputCell struct {
	Backend     string  `json:"backend"`
	Producers   int     `json:"producers"`
	Batch       int     `json:"batch"`
	Items       int     `json:"items"`
	Seconds     float64 `json:"seconds"`
	ItemsPerSec float64 `json:"items_per_sec"`
}

type throughputReport struct {
	envelope
	Results []throughputCell `json:"results"`
}

func (r *throughputReport) cells() *[]throughputCell { return &r.Results }

func (r *throughputReport) matrix() []throughputCell {
	var cells []throughputCell
	for _, backend := range []string{"channel", "queue", "ring"} {
		for _, producers := range []int{1, 4} {
			for _, batch := range []int{1, 16, 256} {
				cells = append(cells, throughputCell{Backend: backend, Producers: producers, Batch: batch, Items: throughputItems})
			}
		}
	}
	return cells
}

func (r *throughputReport) key(c throughputCell) string {
	return fmt.Sprintf("%s/p%d/b%d", c.Backend, c.Producers, c.Batch)
}

func (r *throughputReport) bar(got, pin throughputCell) error {
	if floor := pin.ItemsPerSec * (1 - throughputBound); got.ItemsPerSec < floor {
		return fmt.Errorf("%.0f items/s, below the bar %.0f (pinned %.0f)", got.ItemsPerSec, floor, pin.ItemsPerSec)
	}
	return nil
}

func (r *throughputReport) invariants() []error { return nil }

func (r *throughputReport) header() string {
	return fmt.Sprintf("%-8s %10s %6s %12s %10s %14s", "backend", "producers", "batch", "items", "seconds", "items/s")
}

func (r *throughputReport) row(c throughputCell) string {
	return fmt.Sprintf("%-8s %10d %6d %12d %10.3f %14.0f", c.Backend, c.Producers, c.Batch, c.Items, c.Seconds, c.ItemsPerSec)
}

// measure runs one pipeline shape to completion and reports its rate.
// Runtime construction and teardown stay outside the timed region.
func (r *throughputReport) measure(c throughputCell) (throughputCell, error) {
	backend, producers, batch := c.Backend, c.Producers, c.Batch
	run := rt.New(rt.Options{Clock: clock.NewReal(), ARU: core.PolicyOff()})

	var ref *rt.BufferRef
	switch backend {
	case "channel":
		// Bounded so a fast producer cannot balloon the live set; the
		// non-power-of-two bound changes nothing for channels.
		ref = run.MustAddChannel("B", 0, rt.WithCapacity(1000))
	case "queue":
		// 1000 is deliberately not a power of two: it keeps the queue a
		// queue (a power-of-two bound would auto-upgrade it to a ring
		// and measure the wrong backend).
		ref = run.MustAddQueue("B", 0, rt.WithCapacity(1000))
	case "ring":
		ref = run.MustAddRing("B", 0, rt.WithCapacity(1024))
	default:
		return c, fmt.Errorf("unknown backend %q", backend)
	}

	quota := c.Items / producers
	total := quota * producers
	var started atomic.Int64 // first-put wall time, nanos, set once

	// The timed region is first-put to last-put-applied: with the tight
	// capacity bound the producers advance only as fast as the consumer
	// frees slots, so put-side completion is end-to-end throughput minus
	// at most one buffer's worth of residue. Counting on the consumer
	// side would hang on multi-producer channels, where the Latest
	// discipline silently passes items that land below the consumer's
	// frontier — that loss is channel semantics, not a harness bug.
	prodDone := make(chan int64, producers)
	for p := 0; p < producers; p++ {
		base := vt.Timestamp(p*quota + 1)
		run.MustAddThread(fmt.Sprintf("prod%d", p), 0, func(ctx *rt.Ctx) error {
			out := ctx.Outs()[0]
			started.CompareAndSwap(0, time.Now().UnixNano())
			if batch == 1 {
				for k := 0; k < quota; k++ {
					if err := ctx.Put(out, base+vt.Timestamp(k), nil, 64); err != nil {
						return err
					}
				}
			} else {
				specs := make([]rt.PutSpec, 0, batch)
				for k := 0; k < quota; {
					specs = specs[:0]
					for len(specs) < batch && k < quota {
						specs = append(specs, rt.PutSpec{TS: base + vt.Timestamp(k), Size: 64})
						k++
					}
					if _, err := ctx.PutBatch(out, specs); err != nil {
						return err
					}
				}
			}
			prodDone <- time.Now().UnixNano()
			return nil
		}).MustOutput(ref)
	}

	run.MustAddThread("cons", 0, func(ctx *rt.Ctx) error {
		in := ctx.Ins()[0]
		dst := make([]rt.Msg, batch)
		for {
			// Drain until shutdown; the error is the stop signal.
			if _, err := ctx.GetBatch(in, dst); err != nil {
				return nil
			}
		}
	}).MustInput(ref)

	if err := run.Start(); err != nil {
		return c, fmt.Errorf("start %s: %w", backend, err)
	}
	var finished int64
	for p := 0; p < producers; p++ {
		if at := <-prodDone; at > finished {
			finished = at
		}
	}
	d := time.Duration(finished - started.Load())
	run.Stop()
	run.Wait()

	c.Items = total
	c.Seconds = d.Seconds()
	c.ItemsPerSec = float64(total) / d.Seconds()
	return c, nil
}
