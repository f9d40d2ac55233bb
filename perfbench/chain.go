package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/runtime"
	"repro/internal/vt"
)

const (
	// setupReps is how many pipelines each run builds and starts; setup_s
	// is their median.
	setupReps = 25
	// drainTimeout bounds every Runtime.Drain; a drain that needs longer
	// is reported as not clean, which fails the run.
	drainTimeout = 10 * time.Second
	// pollEvery is the traced run's Snapshot period (backlog, target).
	pollEvery = 10 * time.Millisecond
)

// chainPipe is one built source → relay1 → relay2 → sink pipeline and
// the counters its thread bodies keep.
type chainPipe struct {
	c    *runCtx
	rt   *runtime.Runtime
	reg  *metrics.Registry
	bufs []*runtime.BufferRef
	tc   *timingClock // traced runs only

	produced, delivered atomic.Int64
	ops, failed         atomic.Int64
	measuring           atomic.Bool
	slices              *slicer

	mu         sync.Mutex
	violations []string
}

func (p *chainPipe) violate(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.violations) < 10 {
		p.violations = append(p.violations, fmt.Sprintf(format, args...))
	}
}

// endOfRun reports whether err is the shutdown or drain signal a body
// sees when the run ends, which is not a failed operation.
func endOfRun(err error) bool {
	return errors.Is(err, runtime.ErrDraining) || errors.Is(err, runtime.ErrShutdown)
}

// opErr counts one operation; it reports whether the body should stop,
// recording err as a failure unless it is the end-of-run signal.
func (p *chainPipe) opErr(err error, what string) bool {
	p.ops.Add(1)
	if err == nil {
		return false
	}
	if !endOfRun(err) {
		p.failed.Add(1)
		p.violate("%s: %v", what, err)
	}
	return true
}

// newChainRuntime builds the runtime every chain shares: the real clock,
// wrapped for timing in a traced run.
func newChainRuntime(c *runCtx, policy core.Policy, reg *metrics.Registry) *chainPipe {
	p := &chainPipe{c: c, reg: reg, slices: newSlicer(int(c.seconds / sliceEvery))}
	var clk clock.Clock = clock.NewReal()
	if c.log != nil {
		clk, p.tc = newTimingClock(clk, c.log)
	}
	p.rt = runtime.New(runtime.Options{Clock: clk, ARU: policy, Metrics: reg})
	return p
}

// wire declares the four threads over the three buffers.
func (p *chainPipe) wire(bufs []*runtime.BufferRef, source, relay, sink runtime.Body) error {
	p.bufs = bufs
	bodies := []runtime.Body{source, relay, relay, sink}
	names := append([]string{"source"}, stages...)
	for i, name := range names {
		th, err := p.rt.AddThread(name, 0, bodies[i])
		if err != nil {
			return err
		}
		if i > 0 {
			if _, err := th.Input(bufs[i-1]); err != nil {
				return err
			}
		}
		if i < len(bufs) {
			if _, err := th.Output(bufs[i]); err != nil {
				return err
			}
		}
	}
	return nil
}

// startPipe builds and starts one pipeline, returning the wall time from
// construction to Start returning.
func startPipe(c *runCtx, build func() (*chainPipe, error)) (*chainPipe, time.Duration, error) {
	tr := c.log.threadTracer("main")
	t0 := time.Now()
	p, err := build()
	if err != nil {
		return nil, 0, err
	}
	tr.begin(spStart)
	err = p.rt.Start()
	tr.end()
	setup := time.Since(t0)
	if err != nil {
		return nil, 0, fmt.Errorf("start: %w", err)
	}
	return p, setup, nil
}

// finish drains the pipeline, waits for its threads and checks the
// drain and thread outcomes.
func (p *chainPipe) finish() runtime.DrainReport {
	tr := p.c.log.threadTracer("main")
	tr.begin(spDrain)
	dr := p.rt.Drain(drainTimeout)
	tr.end()
	if err := p.rt.Wait(); err != nil {
		p.violate("thread failed: %v", err)
	}
	if !dr.Clean {
		p.violate("drain not clean within %v", drainTimeout)
	}
	return dr
}

// chainRun is what a measured chain pass hands back to its workload.
type chainRun struct {
	p       *chainPipe
	win     procWindow
	w0, w1  int64 // span-clock window bounds (traced runs)
	setups  []float64
	backlog *hist
	targets []float64
	scrape  *hist
}

// measureChain builds setupReps pipelines (all but the last are drained
// at once and only timed), then runs the last one: a warm-up, the
// measured window of c.seconds in one-second slices, and a drain.
func measureChain(c *runCtx, build func() (*chainPipe, error), check func(*chainPipe, runtime.DrainReport)) (*chainRun, error) {
	r := &chainRun{backlog: newHist(), scrape: newHist()}
	collect := func(p *chainPipe) {
		c.rep.attempted += p.ops.Load()
		c.rep.failed += p.failed.Load()
		c.rep.violations = append(c.rep.violations, p.violations...)
	}
	for i := 0; ; i++ {
		p, setup, err := startPipe(c, build)
		if err != nil {
			return nil, err
		}
		r.setups = append(r.setups, setup.Seconds())
		if i == setupReps-1 {
			r.p = p
			break
		}
		check(p, p.finish())
		collect(p)
	}
	p := r.p
	tr := c.log.threadTracer("main")
	time.Sleep(min(c.seconds/5, time.Second)) // warm-up: the control loop settles

	r.w0 = c.log.now()
	r.win.start()
	p.measuring.Store(true)
	if p.tc != nil {
		p.tc.on.Store(true)
	}
	p.slices.begin(p.delivered.Load())
	start := time.Now()
	nextCut, nextScrape, nextPoll := start.Add(sliceEvery), start.Add(time.Second), start
	for open := true; open; {
		wake := nextCut
		if p.reg != nil && nextScrape.Before(wake) {
			wake = nextScrape
		}
		if c.log != nil && nextPoll.Before(wake) {
			wake = nextPoll
		}
		time.Sleep(time.Until(wake))
		now := time.Now()
		if c.log != nil && !now.Before(nextPoll) {
			nextPoll = nextPoll.Add(pollEvery)
			tr.begin(spSnapshot)
			snap := p.rt.Snapshot()
			tr.end()
			for _, b := range snap.Buffers {
				r.backlog.add(int64(b.Items))
			}
			for _, n := range snap.Nodes {
				if n.Name == "source" && n.Summary.Known() {
					r.targets = append(r.targets, float64(n.Summary.Duration())/1e3)
				}
			}
		}
		if p.reg != nil && !now.Before(nextScrape) {
			nextScrape = nextScrape.Add(time.Second)
			tr.begin(spScrape)
			t0 := nowNs()
			err := p.reg.WriteProm(io.Discard)
			r.scrape.add(nowNs() - t0)
			tr.end()
			if err != nil {
				p.violate("metrics scrape: %v", err)
			}
		}
		if !now.Before(nextCut) {
			nextCut = nextCut.Add(sliceEvery)
			open = p.slices.cut(p.delivered.Load())
		}
	}
	p.measuring.Store(false)
	if p.tc != nil {
		p.tc.on.Store(false)
	}
	r.win.stop()
	r.w1 = c.log.now()

	check(p, p.finish())
	collect(p)
	return r, nil
}

// reportChain sets the metrics every chain shares.
func reportChain(c *runCtx, r *chainRun) error {
	p, rep := r.p, c.rep
	if err := p.slices.report(rep); err != nil || len(rep.violations) > 0 {
		return err
	}
	items := float64(p.slices.total)
	rep.set("delivered_pct", 100*float64(p.delivered.Load())/float64(p.produced.Load()), "%", 0)
	r.win.report(rep, items, r.setups)
	if c.log == nil {
		return nil
	}

	// Per-layer numbers from the spans that started inside the window.
	set := c.log.collect()
	var putNs, putItems, getNs, getItems, sleeps, srcSync, srcIters int64
	getWait := map[string]int64{}
	syncHist := newHist()
	for i, sp := range set.spans {
		if !set.within(i, r.w0, r.w1) {
			continue
		}
		d := sp.end - sp.start
		switch th := set.thread[i]; sp.name {
		case spPut:
			putNs += d
			putItems += int64(sp.items)
		case spGet:
			getNs += d
			getItems += int64(sp.items)
			getWait[th] += d
		case spSync:
			if th == "source" {
				srcSync += d
				srcIters++
			} else {
				syncHist.add(d)
			}
		case spSleep:
			sleeps++
		}
	}
	win := float64(r.w1 - r.w0)
	if putItems > 0 {
		rep.set("runtime.put_ns_per_item", float64(putNs)/float64(putItems), "ns", putItems)
	}
	if getItems > 0 {
		rep.set("runtime.get_ns_per_item", float64(getNs)/float64(getItems), "ns", getItems)
	}
	rep.set("runtime.sync_ns_p50", syncHist.quantile(50), "ns", syncHist.n)
	for _, s := range stages {
		rep.set("runtime.get_wait_share."+s, float64(getWait[s])/win, "ratio", 0)
	}
	rep.set("core.source_sync_share", float64(srcSync)/win, "ratio", srcIters)
	if tgt := median(r.targets); tgt > 0 && srcIters > 0 {
		rep.set("core.target_period_us", tgt, "us", int64(len(r.targets)))
		rep.set("core.pace_ratio", win/1e3/float64(srcIters)/tgt, "ratio", srcIters)
	}
	tc := p.tc
	rep.set("clock.sleeps_per_item", float64(sleeps)/items, "count", sleeps)
	rep.set("clock.sleep_requested_us_p50", tc.req.quantile(50)/1e3, "us", tc.req.n)
	rep.set("clock.sleep_overshoot_us_p50", tc.over.quantile(50)/1e3, "us", tc.over.n)
	if tailPercentile(tc.over.n) >= 99 {
		rep.set("clock.sleep_overshoot_us_p99", tc.over.quantile(99)/1e3, "us", tc.over.n)
	}
	rep.set("clock.now_calls_per_item", float64(tc.nows.Load())/items, "count", 0)
	rep.set("buffer.backlog_items_p50", r.backlog.quantile(50), "items", r.backlog.n)
	if tailPercentile(r.backlog.n) >= 99 {
		rep.set("buffer.backlog_items_p99", r.backlog.quantile(99), "items", r.backlog.n)
	}
	if r.scrape.n > 0 {
		rep.set("metrics.scrape_us_p50", r.scrape.quantile(50)/1e3, "us", r.scrape.n)
	}
	for l, ns := range layerSelf(set, r.w0, r.w1) {
		rep.set(l+".self_ns_per_item", float64(ns)/items, "ns", 0)
	}
	return writeSpans(c, set)
}

// ---- chain-fast -----------------------------------------------------

const (
	fastBatch = 16
	fastSize  = 64
	// fastCap is a power of two, so Start upgrades the queues to the
	// lock-free ring.
	fastCap = 1024
	// stampSlots exceeds every item that can be in flight (three queues
	// of fastCap plus a batch in each thread's hand), so a source stamp
	// is never overwritten before the sink reads it.
	stampSlots = 1 << 14
	fastBlocks = 256
)

type fastInputs struct {
	blocks []([fastSize]byte)
	stamps []int64
}

func newFastInputs(seed int64) *fastInputs {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xfa57))
	in := &fastInputs{blocks: make([]([fastSize]byte), fastBlocks), stamps: make([]int64, stampSlots)}
	for i := range in.blocks {
		for j := range in.blocks[i] {
			in.blocks[i][j] = byte(rng.Uint32())
		}
	}
	return in
}

// buildFast declares the chain-fast pipeline: bounded power-of-two
// queues, 16-item batches of 64 B, no stage compute. The sink checks
// that every timestamp arrives exactly once and in order, with its own
// payload.
func buildFast(c *runCtx, in *fastInputs, policy core.Policy) (*chainPipe, error) {
	p := newChainRuntime(c, policy, nil)
	var bufs []*runtime.BufferRef
	for _, name := range []string{"q1", "q2", "q3"} {
		q, err := p.rt.AddQueue(name, 0, runtime.WithCapacity(fastCap))
		if err != nil {
			return nil, err
		}
		bufs = append(bufs, q)
	}
	source := func(ctx *runtime.Ctx) error {
		tr := c.log.threadTracer("source")
		out := ctx.Outs()[0]
		specs := make([]runtime.PutSpec, fastBatch)
		var ts int64
		for !ctx.Stopped() {
			stamp := nowNs()
			for i := range specs {
				ts++
				specs[i] = runtime.PutSpec{TS: vt.Timestamp(ts), Payload: &in.blocks[ts%fastBlocks], Size: fastSize}
				in.stamps[ts&(stampSlots-1)] = stamp
			}
			tr.begin(spPut)
			n, err := ctx.PutBatch(out, specs)
			tr.endN(n)
			p.produced.Add(int64(n))
			if p.opErr(err, "source put") {
				return nil
			}
			tr.begin(spSync)
			ctx.Sync()
			tr.end()
		}
		return nil
	}
	relay := func(ctx *runtime.Ctx) error {
		tr := c.log.threadTracer(ctx.Name())
		inp, out := ctx.Ins()[0], ctx.Outs()[0]
		msgs := make([]runtime.Msg, fastBatch)
		specs := make([]runtime.PutSpec, fastBatch)
		for !ctx.Stopped() {
			tr.begin(spGet)
			n, err := ctx.GetBatch(inp, msgs)
			tr.endN(n)
			if p.opErr(err, ctx.Name()+" get") {
				return nil
			}
			for i, m := range msgs[:n] {
				specs[i] = runtime.PutSpec{TS: m.TS, Payload: m.Payload, Size: m.Size}
			}
			tr.begin(spPut)
			applied, err := ctx.PutBatch(out, specs[:n])
			tr.endN(applied)
			if p.opErr(err, ctx.Name()+" put") {
				return nil
			}
			tr.begin(spSync)
			ctx.Sync()
			tr.end()
		}
		return nil
	}
	sink := func(ctx *runtime.Ctx) error {
		tr := c.log.threadTracer("sink")
		inp := ctx.Ins()[0]
		msgs := make([]runtime.Msg, fastBatch)
		next := int64(1)
		for !ctx.Stopped() {
			tr.begin(spGet)
			n, err := ctx.GetBatch(inp, msgs)
			tr.endN(n)
			if p.opErr(err, "sink get") {
				return nil
			}
			now := nowNs()
			lat := p.slices.lat()
			for _, m := range msgs[:n] {
				ts := int64(m.TS)
				if ts != next {
					p.violate("sink got timestamp %d, want %d", ts, next)
					next = ts
				}
				next++
				if m.Payload != &in.blocks[ts%fastBlocks] || m.Size != fastSize {
					p.violate("timestamp %d arrived with another item's payload", ts)
				}
				if lat != nil {
					lat.add(now - in.stamps[ts&(stampSlots-1)])
				}
			}
			p.delivered.Add(int64(n))
			tr.begin(spSync)
			ctx.Sync()
			tr.end()
		}
		return nil
	}
	return p, p.wire(bufs, source, relay, sink)
}

// checkFIFO is chain-fast's ledger: every queue became a ring, the drain
// was clean, and produced == delivered + shed to the item.
func checkFIFO(p *chainPipe, dr runtime.DrainReport) {
	for _, b := range p.bufs {
		if b.Backend() != "ring" {
			p.violate("queue %s materialized as %q, not the ring", b.Name(), b.Backend())
		}
	}
	if prod, del := p.produced.Load(), p.delivered.Load(); prod != del+dr.Shed {
		p.violate("conservation: produced %d != delivered %d + shed %d", prod, del, dr.Shed)
	}
}

func runChainFast(c *runCtx) error {
	in := newFastInputs(c.seed)
	r, err := measureChain(c, func() (*chainPipe, error) { return buildFast(c, in, core.PolicyMin()) }, checkFIFO)
	if err != nil {
		return err
	}
	// The ARU-off ceiling prices the control loop; it runs untraced and
	// for a quarter of the window.
	off := &runCtx{workload: c.workload, seed: c.seed, seconds: max(c.seconds/4, time.Second), rep: newReport()}
	ro, err := measureChain(off, func() (*chainPipe, error) { return buildFast(off, in, core.PolicyOff()) }, checkFIFO)
	if err != nil {
		return err
	}
	c.rep.violations = append(c.rep.violations, off.rep.violations...)
	c.rep.attempted += off.rep.attempted
	c.rep.failed += off.rep.failed
	offRate := median(ro.p.slices.rates)
	c.rep.set("core.aru_off_items_per_s", offRate, "items/s", ro.p.slices.total)
	if err := reportChain(c, r); err != nil {
		return err
	}
	c.rep.set("aru_headroom_x", offRate/c.rep.rate, "x", 0)
	return nil
}

// ---- chain-bottleneck -----------------------------------------------

const (
	frameSize   = 1024
	frameBlocks = 64
	// sinkRounds of SHA-256 over a 1 KiB frame is the sink's fixed CPU
	// work per item: about 330 µs on a 2-CPU x86 VM, which makes the
	// sink the bottleneck the source must be throttled to.
	sinkRounds = 300
	// cameraPeriod runs the camera about 1.6 times as fast as the sink can
	// keep up with.
	cameraPeriod = 200 * time.Microsecond
)

type frameInputs struct {
	blocks  []([frameSize]byte)
	digests [][sha256.Size]byte
}

func newFrameInputs(seed int64) *frameInputs {
	rng := rand.New(rand.NewPCG(uint64(seed), 0xf4a3e))
	in := &frameInputs{blocks: make([]([frameSize]byte), frameBlocks), digests: make([][sha256.Size]byte, frameBlocks)}
	for i := range in.blocks {
		for j := range in.blocks[i] {
			in.blocks[i][j] = byte(rng.Uint32())
		}
		in.digests[i] = sinkWork(&in.blocks[i])
	}
	return in
}

// sinkWork is the sink's per-item computation: sinkRounds chained
// SHA-256 passes over the frame.
func sinkWork(frame *[frameSize]byte) [sha256.Size]byte {
	buf := *frame
	sum := sha256.Sum256(buf[:])
	for r := 1; r < sinkRounds; r++ {
		copy(buf[:sha256.Size], sum[:])
		sum = sha256.Sum256(buf[:])
	}
	return sum
}

// camera is the open-loop frame generator: frame k is due at start +
// k·cameraPeriod whatever the pipeline does, and the one-slot register
// always holds the newest frame. Frame k's creation time is its due
// time, so latency counts how late the camera ran as well.
type camera struct {
	start  int64
	latest atomic.Int64
	late   *hist // camera-owned until stop returns
	// on points at the measured pipeline's window flag: lateness is
	// sampled only inside the window.
	on atomic.Pointer[atomic.Bool]
	// tick wakes a source waiting for a frame newer than its last one.
	tick   chan struct{}
	stopCh chan struct{}
	done   chan struct{}
}

func startCamera() *camera {
	cam := &camera{start: nowNs(), late: newHist(), tick: make(chan struct{}, 1), stopCh: make(chan struct{}), done: make(chan struct{})}
	go cam.run()
	return cam
}

func (cam *camera) due(k int64) int64 { return cam.start + k*int64(cameraPeriod) }

func (cam *camera) run() {
	defer close(cam.done)
	for k := int64(1); ; k++ {
		select {
		case <-cam.stopCh:
			return
		default:
		}
		if d := cam.due(k) - nowNs(); d > 0 {
			time.Sleep(time.Duration(d))
		}
		if on := cam.on.Load(); on != nil && on.Load() {
			cam.late.add(nowNs() - cam.due(k))
		}
		cam.latest.Store(k)
		select {
		case cam.tick <- struct{}{}:
		default:
		}
	}
}

func (cam *camera) stop() {
	close(cam.stopCh)
	<-cam.done
}

// buildBottleneck declares the chain-bottleneck pipeline over
// get-latest channels with per-item 1 KiB puts and gets; the source
// takes the camera's newest frame each iteration and the sink does
// sinkWork per item.
func buildBottleneck(c *runCtx, in *frameInputs, cam *camera, srcTS *[]int64, sinkTS *[]int64) (*chainPipe, error) {
	p := newChainRuntime(c, core.PolicyMin(), metrics.NewRegistry())
	var bufs []*runtime.BufferRef
	for _, name := range []string{"c1", "c2", "c3"} {
		ch, err := p.rt.AddChannel(name, 0)
		if err != nil {
			return nil, err
		}
		bufs = append(bufs, ch)
	}
	source := func(ctx *runtime.Ctx) error {
		tr := c.log.threadTracer("source")
		out := ctx.Outs()[0]
		var last int64
		for !ctx.Stopped() {
			k := cam.latest.Load()
			for k == last {
				select {
				case <-cam.tick:
				case <-ctx.Done():
					return nil
				}
				k = cam.latest.Load()
			}
			last = k
			tr.begin(spPut)
			err := ctx.Put(out, vt.Timestamp(k), &in.blocks[k%frameBlocks], frameSize)
			tr.endN(1)
			if p.opErr(err, "source put") {
				return nil
			}
			p.produced.Add(1)
			*srcTS = append(*srcTS, k)
			tr.begin(spSync)
			ctx.Sync()
			tr.end()
		}
		return nil
	}
	relay := func(ctx *runtime.Ctx) error {
		tr := c.log.threadTracer(ctx.Name())
		inp, out := ctx.Ins()[0], ctx.Outs()[0]
		for !ctx.Stopped() {
			tr.begin(spGet)
			m, err := ctx.Get(inp)
			tr.endN(1)
			if p.opErr(err, ctx.Name()+" get") {
				return nil
			}
			tr.begin(spPut)
			err = ctx.Put(out, m.TS, m.Payload, m.Size)
			tr.endN(1)
			if p.opErr(err, ctx.Name()+" put") {
				return nil
			}
			tr.begin(spSync)
			ctx.Sync()
			tr.end()
		}
		return nil
	}
	sink := func(ctx *runtime.Ctx) error {
		tr := c.log.threadTracer("sink")
		inp := ctx.Ins()[0]
		var last int64
		for !ctx.Stopped() {
			tr.begin(spGet)
			m, err := ctx.Get(inp)
			tr.endN(1)
			if p.opErr(err, "sink get") {
				return nil
			}
			ts := int64(m.TS)
			if ts <= last {
				p.violate("sink got timestamp %d after %d", ts, last)
			}
			last = ts
			frame, ok := m.Payload.(*[frameSize]byte)
			if !ok || frame != &in.blocks[ts%frameBlocks] || m.Size != frameSize {
				p.violate("timestamp %d arrived with another item's payload", ts)
				continue
			}
			tr.begin(spWork)
			sum := sinkWork(frame)
			tr.end()
			if sum != in.digests[ts%frameBlocks] {
				p.violate("timestamp %d: wrong digest", ts)
			}
			if lat := p.slices.lat(); lat != nil {
				lat.add(nowNs() - cam.due(ts))
			}
			p.delivered.Add(1)
			*sinkTS = append(*sinkTS, ts)
			tr.begin(spSync)
			ctx.Sync()
			tr.end()
		}
		return nil
	}
	return p, p.wire(bufs, source, relay, sink)
}

// checkLatest is chain-bottleneck's ledger. Get-latest channels skip
// stale items by design, so: every buffer's own put count and the
// runtime's per-port get counter must agree with what the bodies did,
// and produced == delivered + skipped + shed to the item, where skipped
// comes from those layer counters. The sink's timestamps must be a
// strictly increasing subsequence of the source's.
func checkLatest(p *chainPipe, dr runtime.DrainReport, srcTS, sinkTS []int64) int64 {
	gets := map[string]int64{}
	for _, f := range p.reg.Gather() {
		if f.Name != runtime.MetricGets {
			continue
		}
		for _, s := range f.Series {
			gets[s.Labels["buffer"]] = int64(s.Value)
		}
	}
	shed := map[string]int64{}
	for _, b := range dr.Buffers {
		shed[b.Name] = b.Shed
	}
	puts := map[string]int64{}
	for _, b := range p.rt.Snapshot().Buffers {
		puts[b.Name] = b.Puts
	}
	var skipped int64
	for i, b := range p.bufs {
		name := b.Name()
		skipped += puts[name] - gets[name] - shed[name]
		if i > 0 && puts[name] != gets[p.bufs[i-1].Name()] {
			p.violate("%s: relay put %d of the %d items it got", name, puts[name], gets[p.bufs[i-1].Name()])
		}
	}
	prod, del := p.produced.Load(), p.delivered.Load()
	if first := p.bufs[0].Name(); puts[first] != prod {
		p.violate("%s counted %d puts, source made %d", first, puts[first], prod)
	}
	if last := p.bufs[len(p.bufs)-1].Name(); gets[last] != del {
		p.violate("%s counted %d gets, sink took %d", last, gets[last], del)
	}
	if prod != del+skipped+dr.Shed {
		p.violate("conservation: produced %d != delivered %d + skipped %d + shed %d", prod, del, skipped, dr.Shed)
	}
	j := 0
	for _, ts := range sinkTS {
		k := sort.Search(len(srcTS)-j, func(i int) bool { return srcTS[j+i] >= ts })
		if j+k == len(srcTS) || srcTS[j+k] != ts {
			p.violate("sink delivered timestamp %d the source never produced (or out of order)", ts)
			break
		}
		j += k + 1
	}
	return skipped
}

func runChainBottleneck(c *runCtx) error {
	in := newFrameInputs(c.seed)
	cam := startCamera()
	var srcTS, sinkTS []int64
	var skipped int64
	r, err := measureChain(c, func() (*chainPipe, error) {
		srcTS, sinkTS = srcTS[:0], sinkTS[:0]
		p, err := buildBottleneck(c, in, cam, &srcTS, &sinkTS)
		if err == nil {
			cam.on.Store(&p.measuring)
		}
		return p, err
	}, func(p *chainPipe, dr runtime.DrainReport) {
		skipped = checkLatest(p, dr, srcTS, sinkTS)
	})
	cam.stop()
	if err != nil {
		return err
	}
	if err := reportChain(c, r); err != nil {
		return err
	}
	c.rep.set("buffer.skips_per_item", float64(skipped)/float64(r.p.delivered.Load()), "count", 0)
	if tailPercentile(cam.late.n) >= 99 {
		c.rep.set("gen.late_us_p99", cam.late.quantile(99)/1e3, "us", cam.late.n)
	}
	return nil
}
