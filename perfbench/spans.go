package main

import (
	"bufio"
	"compress/gzip"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	goruntime "runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/clock"
)

// Span names: one per layer boundary the traced run times. The text
// before the first dot names the layer a span's self time is charged to.
const (
	spPut       = "runtime.Put"
	spGet       = "runtime.Get"
	spSync      = "runtime.Sync"
	spStart     = "runtime.Start"
	spDrain     = "runtime.Drain"
	spSnapshot  = "runtime.Snapshot"
	spSleep     = "clock.Sleep"
	spScrape    = "metrics.WriteProm"
	spWork      = "bench.work"
	spTrackNew  = "tracker.New"
	spTrackRun  = "tracker.Run"
	spAnalyze   = "trace.Analyze"
	spServer    = "remote.NewServer"
	spDial      = "remote.Dial"
	spRemotePut = "remote.Put"
	spRemoteGet = "remote.GetLatest"
)

// span is one timed call. Times are ns since the log's base; parent
// indexes the same tracer's spans (-1: root).
type span struct {
	name       string
	parent     int32
	items      int32 // items the call moved, for per-item costs
	start, end int64
}

// tracer records the spans of one goroutine, so recording takes no
// lock. A nil tracer records nothing: the untraced run executes the same
// code with tracing off.
type tracer struct {
	log    *spanLog
	thread string
	spans  []span
	open   []int32
}

func (t *tracer) begin(name string) {
	if t == nil {
		return
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	t.open = append(t.open, int32(len(t.spans)))
	t.spans = append(t.spans, span{name: name, parent: parent, start: t.log.now()})
}

func (t *tracer) end() { t.endN(0) }

// endN closes the innermost open span, recording that it moved n items.
func (t *tracer) endN(n int) {
	if t == nil {
		return
	}
	i := t.open[len(t.open)-1]
	t.open = t.open[:len(t.open)-1]
	t.spans[i].end = t.log.now()
	t.spans[i].items = int32(n)
}

// spanLog owns every tracer of one traced run and keeps the spans in
// memory until the run ends.
type spanLog struct {
	base    time.Time
	mu      sync.Mutex
	tracers []*tracer
	sleeps  []span   // clock.Sleep spans, parented at collect time
	byGoid  sync.Map // goroutine id -> *tracer
}

// addSleep records one clock sleep. The clock cannot tell which
// goroutine called it without a goroutine id lookup, which costs more
// than the sleeps it would attribute and perturbs them; collect parents
// each sleep by containment instead.
func (l *spanLog) addSleep(start, end int64) {
	l.mu.Lock()
	l.sleeps = append(l.sleeps, span{name: spSleep, parent: -1, start: start, end: end})
	l.mu.Unlock()
}

func newSpanLog() *spanLog { return &spanLog{base: time.Now()} }

func (l *spanLog) now() int64 {
	if l == nil {
		return 0
	}
	return int64(time.Since(l.base))
}

// threadTracer returns the calling goroutine's tracer, creating it under
// the given name on first use; nil on a nil log.
func (l *spanLog) threadTracer(name string) *tracer {
	if l == nil {
		return nil
	}
	id := goid()
	if t, ok := l.byGoid.Load(id); ok {
		return t.(*tracer)
	}
	t := &tracer{log: l, thread: name}
	l.mu.Lock()
	l.tracers = append(l.tracers, t)
	l.mu.Unlock()
	l.byGoid.Store(id, t)
	return t
}

// goid parses the calling goroutine's id from its stack header
// ("goroutine 123 [running]:"). It is slow, so only tracer lookups at
// the start of a thread body or a benchmark phase use it.
func goid() int64 {
	var buf [64]byte
	s := string(buf[:goruntime.Stack(buf[:], false)])
	s = strings.TrimPrefix(s, "goroutine ")
	if i := strings.IndexByte(s, ' '); i > 0 {
		s = s[:i]
	}
	id, _ := strconv.ParseInt(s, 10, 64)
	return id
}

// spanSet is a flat view of every span of a run, each with its self
// time: its duration minus the part of it its children cover.
type spanSet struct {
	thread []string
	spans  []span
	self   []int64
}

func (l *spanLog) collect() *spanSet {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.parentSleeps()
	set := &spanSet{}
	for _, t := range l.tracers {
		self := selfTimes(t.spans)
		index := make([]int32, len(t.spans))
		for i, s := range t.spans {
			index[i] = -1
			if s.end == 0 {
				continue // still open: the run ended inside it
			}
			index[i] = int32(len(set.spans))
			if s.parent >= 0 {
				s.parent = index[s.parent]
			}
			set.thread = append(set.thread, t.thread)
			set.spans = append(set.spans, s)
			set.self = append(set.self, self[i])
		}
	}
	return set
}

// parentSleeps moves every recorded sleep into the tracer of a thread
// named "source", as a child of the innermost span that contains it:
// the throttle's pacing sleep inside the source's Sync is the only
// sleep on the chains' hot path. A sleep no source span contains (the
// metrics sampler's) becomes a root span of an "other" tracer.
func (l *spanLog) parentSleeps() {
	other := &tracer{log: l, thread: "other"}
	for _, sl := range l.sleeps {
		placed := false
		for _, t := range l.tracers {
			if t.thread != "source" {
				continue
			}
			// Spans are appended as they begin, so starts are sorted.
			i := sort.Search(len(t.spans), func(i int) bool { return t.spans[i].start > sl.start }) - 1
			for i >= 0 && !(t.spans[i].start <= sl.start && t.spans[i].end >= sl.end && t.spans[i].end != 0) {
				i = int(t.spans[i].parent)
			}
			if i >= 0 {
				sl.parent = int32(i)
				t.spans = append(t.spans, sl)
				placed = true
				break
			}
		}
		if !placed {
			other.spans = append(other.spans, sl)
		}
	}
	l.sleeps = nil
	if len(other.spans) > 0 {
		l.tracers = append(l.tracers, other)
	}
}

// selfTimes returns each span's duration minus the union of its direct
// children's intervals clipped to it. Children of one goroutine never
// overlap, but the union keeps the result right if a caller nests
// spans that do.
func selfTimes(spans []span) []int64 {
	kids := make([][]int32, len(spans))
	for i, s := range spans {
		if s.parent >= 0 {
			kids[s.parent] = append(kids[s.parent], int32(i))
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		iv := make([][2]int64, 0, len(kids[i]))
		for _, k := range kids[i] {
			lo, hi := max(spans[k].start, s.start), min(spans[k].end, s.end)
			if hi > lo {
				iv = append(iv, [2]int64{lo, hi})
			}
		}
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var covered, reach int64
		reach = s.start
		for _, x := range iv {
			lo := max(x[0], reach)
			if x[1] > lo {
				covered += x[1] - lo
				reach = x[1]
			}
		}
		self[i] = s.end - s.start - covered
	}
	return self
}

// within reports whether span i started inside [from, to).
func (s *spanSet) within(i int, from, to int64) bool {
	return s.spans[i].start >= from && s.spans[i].start < to
}

// write stores the spans as gzipped JSON lines under dir, one file per
// workload so repeated runs do not grow the disk.
func (s *spanSet) write(dir string, header map[string]any) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s.jsonl.gz", header["workload"]))
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	zw, _ := gzip.NewWriterLevel(f, gzip.BestSpeed)
	bw := bufio.NewWriter(zw)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header); err != nil {
		return "", err
	}
	for i, sp := range s.spans {
		fmt.Fprintf(bw, `{"id":%d,"name":%q,"thread":%q,"parent":%d,"start_ns":%d,"end_ns":%d,"self_ns":%d}`+"\n",
			i, sp.name, s.thread[i], sp.parent, sp.start, sp.end, s.self[i])
	}
	if err := bw.Flush(); err != nil {
		return "", err
	}
	if err := zw.Close(); err != nil {
		return "", err
	}
	return path, f.Close()
}

// timingClock wraps the runtime clock for the traced run: it counts Now
// calls and records every Sleep as a clock.Sleep span, with the
// requested and the overshot duration.
type timingClock struct {
	base clock.Clock
	log  *spanLog
	// on gates the counters to the measured window.
	on   atomic.Bool
	nows atomic.Int64
	mu   sync.Mutex
	req  *hist
	over *hist
}

func (c *timingClock) Now() time.Duration {
	if c.on.Load() {
		c.nows.Add(1)
	}
	return c.base.Now()
}

func (c *timingClock) Sleep(d time.Duration) {
	t0 := c.log.now()
	c.base.Sleep(d)
	t1 := c.log.now()
	c.log.addSleep(t0, t1)
	got := time.Duration(t1 - t0)
	if !c.on.Load() {
		return
	}
	c.mu.Lock()
	c.req.add(int64(d))
	c.over.add(int64(got - d))
	c.mu.Unlock()
}

// The runtime type-asserts clock.Registrar and clock.Blocker; the
// wrapper must answer those assertions exactly as its base does, or the
// traced program would take other code paths (ring eligibility, buffer
// parking) than the timed one. The virtual clock implements both.
type timingBoth struct{ *timingClock }

func (c timingBoth) Add(delta int) { c.base.(clock.Registrar).Add(delta) }
func (c timingBoth) BlockEnter()   { c.base.(clock.Blocker).BlockEnter() }
func (c timingBoth) BlockExit()    { c.base.(clock.Blocker).BlockExit() }

// newTimingClock wraps base; the returned clock implements exactly the
// optional interfaces base implements. tc gives access to the counters.
func newTimingClock(base clock.Clock, log *spanLog) (clk clock.Clock, tc *timingClock) {
	tc = &timingClock{base: base, log: log, req: newHist(), over: newHist()}
	_, reg := base.(clock.Registrar)
	_, blk := base.(clock.Blocker)
	switch {
	case reg && blk:
		return timingBoth{tc}, tc
	case reg || blk:
		panic("perfbench: no wrapper for a clock with only one of Registrar and Blocker")
	}
	return tc, tc
}

// layerSelf sums the self time of the spans that started in [from, to)
// by layer: the span name's text before its first dot. The traced run's
// own Snapshot polls and sleeps no workload span contains (the metrics
// sampler idling) are not work done for an item and are left out.
func layerSelf(set *spanSet, from, to int64) map[string]int64 {
	sums := make(map[string]int64, len(layers))
	for _, l := range layers {
		sums[l] = 0
	}
	for i, sp := range set.spans {
		if set.within(i, from, to) && sp.name != spSnapshot && set.thread[i] != "other" {
			sums[strings.SplitN(sp.name, ".", 2)[0]] += set.self[i]
		}
	}
	return sums
}

// writeSpans stores a traced run's spans under .bench_build/spans with
// the run's identity and environment as the first line.
func writeSpans(c *runCtx, set *spanSet) error {
	path, err := set.write(filepath.Join(".bench_build", "spans"), map[string]any{
		"workload":   c.workload,
		"seed":       c.seed,
		"run_id":     fmt.Sprintf("%s-%d-%d", c.workload, c.seed, clockBase.UnixNano()),
		"go_version": goruntime.Version(),
		"GOMAXPROCS": goruntime.GOMAXPROCS(0),
		"NumCPU":     goruntime.NumCPU(),
	})
	if err != nil {
		return fmt.Errorf("write spans: %w", err)
	}
	fmt.Printf("spans %s (%d spans)\n", path, len(set.spans))
	return nil
}
