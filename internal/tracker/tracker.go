// Package tracker implements the paper's evaluation workload: the
// color-based people tracker developed at Compaq CRL (Rehg et al., CVPR
// 1997) as instantiated in Figure 5 of the paper.
//
// Five tasks executed by six threads, interconnected by nine channels:
//
//		Digitizer ──C1──▶ MotionMask ──C5──▶ TargetDetect1 ──C8──▶ GUI
//		     │    ──C2──▶ Histogram  ──C6──▶ TargetDetect2 ──C9──▶ GUI
//		     │    ──C3──▶ TargetDetect1     (C7: Histogram ▶ both TDs)
//		     └────C4──▶ TargetDetect2
//
//	  - The Digitizer emits 738 kB video frames at camera rate (~30 fps).
//	  - The Motion Mask (Change Detection) task differences the current
//	    frame against the background, producing 246 kB masks.
//	  - The Histogram task builds a 981 kB color histogram model per frame.
//	  - Two Target Detection threads — one per color model — combine the
//	    freshest frame, mask, and histogram model into a 68-byte location
//	    record. The two models have different runtime complexity (paper
//	    §3.1: computation is data dependent), which is exactly what makes
//	    the min and max compression operators behave differently.
//	  - The GUI consumes both location streams and displays the result;
//	    each display is one pipeline output.
//
// The vision kernels are replaced by synthetic compute with the paper's
// item sizes, stage-period ratios, data-dependent complexity (a bounded
// random walk per frame), and seeded log-normal execution noise (the
// paper's OS-scheduling variance). ARU never inspects pixels; it reacts
// to periods, sizes, and topology, all of which are preserved.
package tracker

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/gc"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/sched"
	"repro/internal/trace"
	"repro/internal/transport"
	"repro/internal/vt"
)

// Sizes are the per-item logical sizes reported in §5 of the paper.
type Sizes struct {
	Frame     int64 // Digitizer output
	Mask      int64 // Background / Motion Mask output
	Histogram int64 // Histogram model output
	Location  int64 // Target Detection output
}

// PaperSizes returns the sizes from the paper: 738 kB, 246 kB, 981 kB,
// 68 B.
func PaperSizes() Sizes {
	return Sizes{Frame: 738 << 10, Mask: 246 << 10, Histogram: 981 << 10, Location: 68}
}

// Timing holds the base execution periods of each stage, in paper-scale
// (wall-clock of the original testbed) units. The defaults make Target
// Detection the bottleneck, as in the paper, with the two color models
// deliberately asymmetric.
type Timing struct {
	// CameraPeriod is the digitizer's intrinsic frame interval.
	CameraPeriod time.Duration
	// DigitizeCost is the digitizer's per-frame busy time.
	DigitizeCost time.Duration
	// MaskCost is the motion-mask task's base compute per frame.
	MaskCost time.Duration
	// HistogramCost is the histogram task's base compute per frame.
	HistogramCost time.Duration
	// DetectCost1 and DetectCost2 are the two target detectors' base
	// compute per frame (model 2 is the heavier color model).
	DetectCost1, DetectCost2 time.Duration
	// GUICost is the display task's per-result compute.
	GUICost time.Duration
	// NoiseSigma is the σ of the log-normal multiplicative noise applied
	// to every compute span (OS-scheduling variance, §3.3.2).
	NoiseSigma float64
	// ComplexityAmplitude bounds the data-dependent complexity walk:
	// each frame's content factor stays within [1-A, 1+A].
	ComplexityAmplitude float64
}

// DefaultTiming returns stage periods modeled on the tracker's measured
// behaviour (≈3–5 fps end to end, 350–660 ms latency).
func DefaultTiming() Timing {
	return Timing{
		CameraPeriod:        33 * time.Millisecond,
		DigitizeCost:        8 * time.Millisecond,
		MaskCost:            85 * time.Millisecond,
		HistogramCost:       120 * time.Millisecond,
		DetectCost1:         185 * time.Millisecond,
		DetectCost2:         205 * time.Millisecond,
		GUICost:             18 * time.Millisecond,
		NoiseSigma:          0.12,
		ComplexityAmplitude: 0.18,
	}
}

// Config assembles one tracker run.
type Config struct {
	// Hosts is 1 (paper configuration 1) or 5 (configuration 2). Other
	// positive values are allowed; placement round-robins the pipeline
	// stages.
	Hosts int
	// Scale selects the clock. Zero (the default) uses the
	// discrete-event virtual clock: runs complete as fast as the host
	// executes them with microsecond-exact virtual timing. A positive
	// Scale instead runs against the wall clock sped up Scale times
	// (Scale=1 is real time) — useful for demos, but subject to OS timer
	// granularity.
	Scale float64
	// Seed drives all synthetic randomness (per-thread streams are
	// derived from it).
	Seed int64
	// Policy is the ARU policy under test.
	Policy core.Policy
	// Collector is the GC strategy; nil means DGC as in the paper.
	Collector gc.Collector
	// Sizes and Timing default to the paper's values when zero.
	Sizes  Sizes
	Timing Timing
	// BusBytesPerSec is each host's memory-system bandwidth; 0 uses the
	// reproduction's calibrated default.
	BusBytesPerSec float64
	// PressureBytes scales bus costs by 1 + live/PressureBytes per host
	// (memory-pressure model); 0 uses the calibrated default, negative
	// disables it.
	PressureBytes int64
	// Link is the inter-host link; zero value uses Gigabit Ethernet.
	Link transport.LinkSpec
	// EliminateDeadComputations enables the §3.2 dead-timestamp
	// computation elimination: intermediate stages skip their compute
	// when every consumer of their outputs has already moved past the
	// timestamp they are about to process. The paper reports this
	// technique alone had "limited success" (upstream threads run ahead
	// of consumer guarantees); ablation ABL4 measures exactly that.
	EliminateDeadComputations bool
	// HotFactor, when > 1, multiplies DetectCost1 — an induced hot stage
	// (a color model whose compute blew up on the deployed content) used
	// by the elastic-recovery experiment (cmd/pin elastic).
	HotFactor float64
	// Elastic, when non-nil, installs the elastic scheduler
	// (internal/sched) as a runtime control loop: the bottleneck stage
	// is replicated into a worker pool behind its buffers and drained
	// back when the load subsides. Nil (the default) runs no scheduler —
	// the baseline figures are untouched.
	Elastic *sched.Config
	// Metrics, when non-nil, enables the runtime's live metrics registry
	// (the elastic-recovery harness reads the scheduler's scale counters
	// through it).
	Metrics *metrics.Registry
}

// DefaultBusBytesPerSec is the calibrated per-host memory-system copy
// bandwidth. It is set low enough that a digitizer running at full camera
// rate (the No-ARU baseline) loads the shared memory system and slows the
// co-located detection stages — the causal path behind configuration 1's
// throughput loss in the paper.
const DefaultBusBytesPerSec = 120e6

// DefaultPressureBytes is the calibrated memory-pressure scale: a host
// holding this many live buffered bytes pays double per byte moved. It
// models the allocator/paging/cache degradation that made the paper's
// No-ARU configuration lose throughput on one node (§5.2).
const DefaultPressureBytes = 4 << 20

// withDefaults fills zero fields.
func (cfg Config) withDefaults() Config {
	if cfg.Hosts <= 0 {
		cfg.Hosts = 1
	}
	if cfg.Sizes == (Sizes{}) {
		cfg.Sizes = PaperSizes()
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DefaultTiming()
	}
	if cfg.BusBytesPerSec == 0 {
		cfg.BusBytesPerSec = DefaultBusBytesPerSec
	}
	if cfg.PressureBytes == 0 {
		cfg.PressureBytes = DefaultPressureBytes
	} else if cfg.PressureBytes < 0 {
		cfg.PressureBytes = 0
	}
	if cfg.Link == (transport.LinkSpec{}) {
		cfg.Link = transport.GigabitEthernet
	}
	if cfg.Collector == nil {
		cfg.Collector = gc.NewDeadTimestamp()
	}
	return cfg
}

// App is a built tracker application.
type App struct {
	cfg      Config
	Runtime  *runtime.Runtime
	Recorder *trace.Recorder
	Cluster  *transport.Cluster
}

// Frame is the digitizer's payload: a synthetic stand-in for the 738 kB
// image, carrying the data-dependent complexity factor downstream stages
// scale their work by.
type Frame struct {
	Seq        int64
	Complexity float64
}

// Mask is the motion-mask payload.
type Mask struct {
	FrameTS    vt.Timestamp
	Complexity float64
}

// Model is the histogram-model payload.
type Model struct {
	FrameTS    vt.Timestamp
	Complexity float64
}

// Location is the target-detection payload.
type Location struct {
	FrameTS vt.Timestamp
	ModelID int
	X, Y    float64
	Found   bool
}

// hostPlan maps the six threads onto hosts. With one host everything is
// co-located (configuration 1); with five, each *task* gets its own host
// and the two detection threads share one, as in the paper's
// configuration 2.
type hostPlan struct {
	digitizer, mask, histogram, detect1, detect2, gui int
}

func planHosts(n int) hostPlan {
	if n <= 1 {
		return hostPlan{}
	}
	at := func(i int) int { return i % n }
	return hostPlan{
		digitizer: at(0), mask: at(1), histogram: at(2),
		detect1: at(3), detect2: at(3), gui: at(4),
	}
}

// New builds the tracker application (graph declared, not yet started).
func New(cfg Config) (*App, error) {
	cfg = cfg.withDefaults()
	var clk clock.Clock
	if cfg.Scale > 0 {
		clk = clock.NewScaled(clock.NewReal(), cfg.Scale)
	} else {
		clk = clock.NewVirtual()
	}
	cluster := transport.NewCluster(clk, transport.ClusterSpec{
		Hosts: cfg.Hosts, Link: cfg.Link, BusBytesPerSec: cfg.BusBytesPerSec,
	})
	rec := trace.NewRecorder()
	opts := runtime.Options{
		Clock: clk, Cluster: cluster, Collector: cfg.Collector,
		ARU: cfg.Policy, Recorder: rec, PressureBytes: cfg.PressureBytes,
		Metrics: cfg.Metrics,
	}
	if cfg.Elastic != nil {
		opts.ControlLoops = append(opts.ControlLoops, sched.Loop(*cfg.Elastic))
	}
	rt := runtime.New(opts)
	app := &App{cfg: cfg, Runtime: rt, Recorder: rec, Cluster: cluster}
	if err := app.build(); err != nil {
		return nil, err
	}
	return app, nil
}

// build declares the Figure 5 task graph and thread bodies.
func (a *App) build() error {
	cfg := a.cfg
	rt := a.Runtime
	hp := planHosts(cfg.Hosts)
	tm := cfg.Timing
	sz := cfg.Sizes

	// Channels live on their producer's host (paper §5, configuration 2).
	c1, err := rt.AddChannel("C1-frame-mask", hp.digitizer)
	if err != nil {
		return err
	}
	c2 := rt.MustAddChannel("C2-frame-hist", hp.digitizer)
	c3 := rt.MustAddChannel("C3-frame-td1", hp.digitizer)
	c4 := rt.MustAddChannel("C4-frame-td2", hp.digitizer)
	c5 := rt.MustAddChannel("C5-mask-td1", hp.mask)
	c6 := rt.MustAddChannel("C6-mask-td2", hp.mask)
	c7 := rt.MustAddChannel("C7-model", hp.histogram) // shared by both TDs
	c8 := rt.MustAddChannel("C8-loc1", hp.detect1)
	c9 := rt.MustAddChannel("C9-loc2", hp.detect2)

	noise := func(rng *rand.Rand) float64 {
		if tm.NoiseSigma <= 0 {
			return 1
		}
		return math.Exp(rng.NormFloat64() * tm.NoiseSigma)
	}
	scaleDur := func(d time.Duration, f float64) time.Duration {
		return time.Duration(float64(d) * f)
	}

	// --- Digitizer -------------------------------------------------------
	digitizer := rt.MustAddThread("digitizer", hp.digitizer, func(ctx *runtime.Ctx) error {
		rng := rand.New(rand.NewSource(cfg.Seed))
		outs := threadOuts(ctx)
		complexity := 1.0
		var ts vt.Timestamp
		for !ctx.Stopped() {
			ts++
			// Data-dependent content: bounded random walk.
			complexity += rng.NormFloat64() * 0.05
			lo, hi := 1-tm.ComplexityAmplitude, 1+tm.ComplexityAmplitude
			if complexity < lo {
				complexity = lo
			}
			if complexity > hi {
				complexity = hi
			}
			ctx.Compute(scaleDur(tm.DigitizeCost, noise(rng)))
			frame := Frame{Seq: int64(ts), Complexity: complexity}
			for _, out := range outs {
				if err := ctx.Put(out, ts, frame, sz.Frame); err != nil {
					return err
				}
			}
			// The camera paces the digitizer even without ARU.
			ctx.Idle(tm.CameraPeriod - ctx.Elapsed())
			ctx.Sync()
		}
		return nil
	})

	// --- Motion Mask (Change Detection) ----------------------------------
	// deadOnArrival implements the optional §3.2 computation elimination:
	// true when every output's consumers have already passed ts.
	deadOnArrival := func(ctx *runtime.Ctx, ts vt.Timestamp, outs []*runtime.OutPort) bool {
		if !cfg.EliminateDeadComputations {
			return false
		}
		for _, out := range outs {
			if ctx.ShouldProduce(out, ts) {
				return false
			}
		}
		return true
	}

	maskThread := rt.MustAddThread("motion-mask", hp.mask, func(ctx *runtime.Ctx) error {
		rng := rand.New(rand.NewSource(cfg.Seed + 1))
		in := threadIns(ctx)[0]
		outs := threadOuts(ctx)
		for {
			msg, err := ctx.GetLatest(in)
			if err != nil {
				return err
			}
			if deadOnArrival(ctx, msg.TS, outs) {
				ctx.Sync()
				continue
			}
			frame := msg.Payload.(Frame)
			ctx.Compute(scaleDur(tm.MaskCost, frame.Complexity*noise(rng)))
			mask := Mask{FrameTS: msg.TS, Complexity: frame.Complexity}
			for _, out := range outs {
				if err := ctx.Put(out, msg.TS, mask, sz.Mask); err != nil {
					return err
				}
			}
			ctx.Sync()
		}
	})

	// --- Histogram --------------------------------------------------------
	histThread := rt.MustAddThread("histogram", hp.histogram, func(ctx *runtime.Ctx) error {
		rng := rand.New(rand.NewSource(cfg.Seed + 2))
		in := threadIns(ctx)[0]
		out := threadOuts(ctx)[0]
		for {
			msg, err := ctx.GetLatest(in)
			if err != nil {
				return err
			}
			if deadOnArrival(ctx, msg.TS, threadOuts(ctx)) {
				ctx.Sync()
				continue
			}
			frame := msg.Payload.(Frame)
			ctx.Compute(scaleDur(tm.HistogramCost, frame.Complexity*noise(rng)))
			model := Model{FrameTS: msg.TS, Complexity: frame.Complexity}
			if err := ctx.Put(out, msg.TS, model, sz.Histogram); err != nil {
				return err
			}
			ctx.Sync()
		}
	})

	// --- Target Detection (two color models) -----------------------------
	makeDetector := func(id int, base time.Duration, seedOff int64) runtime.Body {
		return func(ctx *runtime.Ctx) error {
			rng := rand.New(rand.NewSource(cfg.Seed + seedOff))
			ins := threadIns(ctx) // frame, mask, model — in wiring order
			out := threadOuts(ctx)[0]
			// A detection needs one mask and one model to exist; block
			// for the first of each, then track the pipeline off the
			// freshest frame and refresh mask/model opportunistically
			// (the real tracker reuses its current background and color
			// model between updates).
			maskMsg, err := ctx.GetLatest(ins[1])
			if err != nil {
				return err
			}
			modelMsg, err := ctx.GetLatest(ins[2])
			if err != nil {
				return err
			}
			for {
				frameMsg, err := ctx.GetLatest(ins[0])
				if err != nil {
					return err
				}
				if m, ok, err := ctx.TryGetLatest(ins[1]); err != nil {
					return err
				} else if ok {
					maskMsg = m
				} else {
					ctx.Reuse(maskMsg)
				}
				if m, ok, err := ctx.TryGetLatest(ins[2]); err != nil {
					return err
				} else if ok {
					modelMsg = m
				} else {
					ctx.Reuse(modelMsg)
				}
				frame := frameMsg.Payload.(Frame)
				ctx.Compute(scaleDur(base, frame.Complexity*noise(rng)))
				loc := Location{
					FrameTS: frameMsg.TS, ModelID: id,
					X: rng.Float64() * 640, Y: rng.Float64() * 480,
					Found: rng.Float64() < 0.85,
				}
				if err := ctx.Put(out, frameMsg.TS, loc, sz.Location); err != nil {
					return err
				}
				ctx.Sync()
			}
		}
	}
	detect1Cost := tm.DetectCost1
	if cfg.HotFactor > 1 {
		detect1Cost = scaleDur(detect1Cost, cfg.HotFactor)
	}
	td1 := rt.MustAddThread("target-detect-1", hp.detect1, makeDetector(1, detect1Cost, 3))
	td2 := rt.MustAddThread("target-detect-2", hp.detect2, makeDetector(2, tm.DetectCost2, 4))

	// --- GUI ---------------------------------------------------------------
	gui := rt.MustAddThread("gui", hp.gui, func(ctx *runtime.Ctx) error {
		rng := rand.New(rand.NewSource(cfg.Seed + 5))
		ins := threadIns(ctx)
		// The display waits for a fresh result from each color model
		// before refreshing — the paper's GUI "continually displays the
		// tracking result". Blocking on both streams is what exposes the
		// §5.2 buffer-residency effect: under ARU-max consumers wait on
		// empty buffers and items never linger, reducing latency at the
		// cost of throughput.
		for {
			if _, err := ctx.GetLatest(ins[0]); err != nil {
				return err
			}
			if _, err := ctx.GetLatest(ins[1]); err != nil {
				return err
			}
			ctx.Compute(scaleDur(tm.GUICost, noise(rng)))
			ctx.Emit()
			ctx.Sync()
		}
	})

	// --- Wiring (order matters for bodies indexing ins/outs) --------------
	digitizer.MustOutput(c1)
	digitizer.MustOutput(c2)
	digitizer.MustOutput(c3)
	digitizer.MustOutput(c4)

	maskThread.MustInput(c1)
	maskThread.MustOutput(c5)
	maskThread.MustOutput(c6)

	histThread.MustInput(c2)
	histThread.MustOutput(c7)

	td1.MustInput(c3) // frame
	td1.MustInput(c5) // mask
	td1.MustInput(c7) // model
	td1.MustOutput(c8)

	td2.MustInput(c4) // frame
	td2.MustInput(c6) // mask
	td2.MustInput(c7) // model
	td2.MustOutput(c9)

	gui.MustInput(c8)
	gui.MustInput(c9)

	return nil
}

// threadOuts and threadIns expose the declared ports to bodies in wiring
// order.
func threadOuts(ctx *runtime.Ctx) []*runtime.OutPort { return ctx.Outs() }
func threadIns(ctx *runtime.Ctx) []*runtime.InPort   { return ctx.Ins() }

// Run executes the tracker for d of virtual (paper-scale) time and
// returns the postmortem analysis over the window after the warmup prefix
// is discarded.
func (a *App) Run(d, warmup time.Duration) (*trace.Analysis, error) {
	if warmup >= d {
		return nil, fmt.Errorf("tracker: warmup %v must be shorter than run %v", warmup, d)
	}
	if err := a.Runtime.RunFor(d); err != nil {
		return nil, err
	}
	return trace.Analyze(a.Recorder, trace.AnalyzeOptions{From: warmup, To: d})
}
