package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
	"time"

	"repro/internal/clock"
)

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int64
		want float64
	}{
		{0, 0}, {19, 0}, {20, 50}, {39, 50}, {40, 75}, {100, 90}, {199, 90},
		{200, 95}, {1000, 99}, {9999, 99}, {10000, 99.9}, {100000, 99.99},
	} {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

func TestHistQuantiles(t *testing.T) {
	h := newHist()
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	if h.n != 100000 || h.min != 1 || h.max != 100000 {
		t.Fatalf("n=%d min=%d max=%d", h.n, h.min, h.max)
	}
	for _, p := range []float64{50, 90, 99, 99.9} {
		want := p / 100 * 100000
		if got := h.quantile(p); math.Abs(got-want)/want > 1.0/subBuckets {
			t.Errorf("p%g = %g, want %g within 1/%d", p, got, want, subBuckets)
		}
	}
	small := newHist()
	for _, v := range []int64{3, 3, 7, 120} {
		small.add(v)
	}
	if got := small.quantile(50); got != 3 {
		t.Errorf("exact-range p50 = %g, want 3", got)
	}
	if got := small.quantile(100); got != 120 {
		t.Errorf("p100 = %g, want the max 120", got)
	}

	// requireTail refuses a percentile fewer than ten samples back.
	few := newHist()
	for i := 0; i < 999; i++ {
		few.add(int64(i))
	}
	if _, err := requireTail(few, 99, "few"); err == nil {
		t.Error("p99 of 999 samples accepted")
	}
	few.add(999)
	if v, err := requireTail(few, 99, "few"); err != nil || math.Abs(v-990) > 8 {
		t.Errorf("p99 of 1000 samples = %g, %v", v, err)
	}
}

func TestSlicerMedians(t *testing.T) {
	s := newSlicer(3)
	if s.lat() != nil {
		t.Fatal("latency histogram outside the window")
	}
	s.begin(0)
	for i, items := range []int64{100, 300, 100300} {
		for v := int64(0); v < 1000; v++ {
			s.lat().add(int64(i+1) * 1000)
		}
		open := s.cut(items)
		if open != (i < 2) {
			t.Fatalf("slice %d: open = %v", i, open)
		}
	}
	if s.total != 100300 || s.lat() != nil {
		t.Fatalf("total %d, window still open: %v", s.total, s.lat() != nil)
	}
	rep := newReport()
	if err := s.report(rep); err != nil {
		t.Fatal(err)
	}
	// The slices' p50s are 1, 2 and 3 µs.
	if got := rep.vals["latency_p50_us"]; got != 2 {
		t.Errorf("median slice p50 = %g µs, want 2", got)
	}
	if rep.samples["latency_p99_us"] != 3000 {
		t.Errorf("latency sample count %d, want 3000", rep.samples["latency_p99_us"])
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{name: "a", parent: -1, start: 0, end: 100},
		{name: "b", parent: 0, start: 10, end: 30},
		{name: "c", parent: 0, start: 40, end: 60},
		{name: "d", parent: 2, start: 45, end: 50},
		{name: "e", parent: -1, start: 200, end: 300},
		// Overlapping children, one reaching past its parent.
		{name: "f", parent: 4, start: 210, end: 250},
		{name: "g", parent: 4, start: 230, end: 320},
	}
	want := []int64{60, 20, 15, 5, 10, 40, 90}
	got := selfTimes(spans)
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("self(%s) = %d, want %d", spans[i].name, got[i], want[i])
		}
	}
}

func TestSleepsParentedByContainment(t *testing.T) {
	l := newSpanLog()
	src := &tracer{log: l, thread: "source", spans: []span{
		{name: spPut, parent: -1, start: 0, end: 50},
		{name: spSync, parent: -1, start: 100, end: 200},
	}}
	relay := &tracer{log: l, thread: "relay1", spans: []span{{name: spSync, parent: -1, start: 90, end: 210}}}
	l.tracers = []*tracer{src, relay}
	l.addSleep(120, 180) // inside the source's Sync
	l.addSleep(300, 400) // outside every source span
	set := l.collect()
	var sync, sleepIn, sleepOut = -1, -1, -1
	for i, sp := range set.spans {
		switch {
		case sp.name == spSync && set.thread[i] == "source":
			sync = i
		case sp.name == spSleep && sp.start == 120:
			sleepIn = i
		case sp.name == spSleep:
			sleepOut = i
		}
	}
	if sync < 0 || sleepIn < 0 || sleepOut < 0 {
		t.Fatalf("spans missing: %+v", set.spans)
	}
	if set.spans[sleepIn].parent != int32(sync) || set.thread[sleepIn] != "source" {
		t.Errorf("contained sleep parent %d (thread %s), want the source Sync %d", set.spans[sleepIn].parent, set.thread[sleepIn], sync)
	}
	if set.self[sync] != 40 {
		t.Errorf("source Sync self time %d, want 100-60", set.self[sync])
	}
	if set.spans[sleepOut].parent != -1 || set.thread[sleepOut] != "other" {
		t.Errorf("uncontained sleep: parent %d thread %s", set.spans[sleepOut].parent, set.thread[sleepOut])
	}
	// The uncontained sleep is idle time, not work for an item.
	self := layerSelf(set, 0, 1000)
	if self["clock"] != 60 || self["runtime"] != 50+40+120 {
		t.Errorf("layer self times %v", self)
	}
}

func TestTimingClockForwardsOptionalInterfaces(t *testing.T) {
	log := newSpanLog()
	v, _ := newTimingClock(clock.NewVirtual(), log)
	if _, ok := v.(clock.Registrar); !ok {
		t.Error("wrapped virtual clock lost clock.Registrar")
	}
	if _, ok := v.(clock.Blocker); !ok {
		t.Error("wrapped virtual clock lost clock.Blocker")
	}
	r, tc := newTimingClock(clock.NewReal(), log)
	if _, ok := r.(clock.Registrar); ok {
		t.Error("wrapped real clock gained clock.Registrar (it would disable the ring)")
	}
	if _, ok := r.(clock.Blocker); ok {
		t.Error("wrapped real clock gained clock.Blocker")
	}
	tc.on.Store(true)
	r.Now()
	r.Sleep(time.Millisecond)
	if tc.nows.Load() != 1 || tc.req.n != 1 || tc.req.max != int64(time.Millisecond) || tc.over.min < 0 {
		t.Errorf("counters: nows %d sleeps %d req %d over %d", tc.nows.Load(), tc.req.n, tc.req.max, tc.over.min)
	}
}

var sink byte

func TestCPUAndRSSReaders(t *testing.T) {
	cpu0 := cpuTime()
	for end := time.Now().Add(60 * time.Millisecond); time.Now().Before(end); {
		sink++
	}
	if d := cpuTime() - cpu0; d < 30*time.Millisecond || d > 2*time.Second {
		t.Errorf("60 ms busy loop read as %v of CPU", d)
	}
	rss0 := peakRSSBytes()
	if rss0 <= 0 {
		t.Fatalf("peak RSS %d", rss0)
	}
	buf := make([]byte, 64<<20)
	for i := range buf {
		buf[i] = byte(i)
	}
	sink += buf[len(buf)/2]
	if grew := peakRSSBytes() - rss0; grew < 32<<20 {
		t.Errorf("peak RSS grew by %d bytes after touching 64 MiB", grew)
	}
}

func TestBenchmarkJSONMatchesCatalog(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b struct {
		Command    []string `json:"command"`
		Paths      []string `json:"paths"`
		RunSeconds int      `json:"run_seconds"`
		Workloads  []struct{ Name, Why string }
		EndToEnd   []metricDef `json:"end_to_end"`
		PerLayer   []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind string, got, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program %d", kind, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, program %+v", kind, i, got[i], want[i])
			}
			if !validMetricName(want[i].Name) || seen[want[i].Name] {
				t.Errorf("%s: bad or repeated name %q", kind, want[i].Name)
			}
			seen[want[i].Name] = true
			if !unit.MatchString(want[i].Unit) {
				t.Errorf("%s: bad unit %q", want[i].Name, want[i].Unit)
			}
			if want[i].Better != "higher" && want[i].Better != "lower" {
				t.Errorf("%s: better %q", want[i].Name, want[i].Better)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	perLayerNoBound := make([]metricDef, len(perLayer))
	for i, d := range perLayer {
		d.Bound = 0
		perLayerNoBound[i] = d
	}
	check("per_layer", b.PerLayer, perLayerNoBound)
	for _, d := range endToEnd {
		if d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", d.Name, d.Bound)
		}
	}
	if len(b.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program runs %d", len(b.Workloads), len(workloads))
	}
	for _, w := range b.Workloads {
		if workloads[w.Name] == nil || !validMetricName(w.Name) || seen[w.Name] {
			t.Errorf("workload %q unknown or repeated", w.Name)
		}
		seen[w.Name] = true
		if len(w.Why) > 200 || regexp.MustCompile(`[\n\r]`).MatchString(w.Why) {
			t.Errorf("workload %s: why is not one line of at most 200 characters", w.Name)
		}
	}
	if validMetricName("a b") || validMetricName("") || validMetricName(".x") {
		t.Error("validMetricName accepts a malformed name")
	}
}
