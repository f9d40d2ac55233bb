package main

import (
	"fmt"
	"math"
	"math/bits"
	"regexp"
	"sort"
	"sync/atomic"
	"time"
)

// hist is a log-linear histogram of non-negative integer samples (ns,
// items, ...). Values below subBuckets are exact; above, each power of
// two is split into subBuckets equal buckets, so a reported quantile is
// within 1/(2*subBuckets) of a sample it stands for. It keeps a run's
// millions of samples in a fixed 60 KiB.
type hist struct {
	counts   []int64
	n        int64
	min, max int64
}

const subBuckets = 128

func newHist() *hist {
	return &hist{counts: make([]int64, subBuckets*(64-7)), min: math.MaxInt64}
}

func bucketOf(v int64) int {
	if v < subBuckets {
		return int(v)
	}
	e := bits.Len64(uint64(v)) - 8 // v>>e lies in [128, 256)
	return subBuckets + e*subBuckets + int(v>>e) - subBuckets
}

// bucketMid is the value a bucket reports: the midpoint of the integers
// it holds.
func bucketMid(i int) float64 {
	if i < subBuckets {
		return float64(i)
	}
	e := (i - subBuckets) / subBuckets
	lo := int64(subBuckets+(i-subBuckets)%subBuckets) << e
	return float64(lo) + float64((int64(1)<<e)-1)/2
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.counts[bucketOf(v)]++
	h.n++
	if v < h.min {
		h.min = v
	}
	if v > h.max {
		h.max = v
	}
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
	h.min = min(h.min, o.min)
	h.max = max(h.max, o.max)
}

// quantile returns the nearest-rank p-th percentile (0 < p <= 100),
// clamped to the exact extremes; 0 for an empty histogram.
func (h *hist) quantile(p float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := int64(math.Ceil(p / 100 * float64(h.n)))
	rank = max(rank, 1)
	var seen int64
	for i, c := range h.counts {
		seen += c
		if seen >= rank {
			return math.Min(math.Max(bucketMid(i), float64(h.min)), float64(h.max))
		}
	}
	return float64(h.max)
}

// tailPercentiles are the percentiles the reducer considers, highest
// first.
var tailPercentiles = []float64{99.99, 99.9, 99, 95, 90, 75, 50}

// tailPercentile returns the highest percentile in tailPercentiles that
// has at least ten of n samples beyond it, or 0 when even the median
// lacks them.
func tailPercentile(n int64) float64 {
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			return p
		}
	}
	return 0
}

// requireTail returns the p-th percentile of h, or an error when h has
// fewer than ten samples beyond it: such a percentile would be one
// sample's noise, not a measurement.
func requireTail(h *hist, p float64, what string) (float64, error) {
	if tailPercentile(h.n) < p {
		return 0, fmt.Errorf("%s: %d samples cannot support p%g", what, h.n, p)
	}
	return h.quantile(p), nil
}

// median of a small sample; 0 when empty.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

func validMetricName(s string) bool { return metricName.MatchString(s) }

// sliceEvery is the length of one measurement slice.
const sliceEvery = time.Second

// slicer cuts a measured window into one-second slices. Each end-to-end
// rate, per-item cost and latency percentile is the median over the
// slices, so a burst of outside load on a shared machine moves one
// slice, not the result. Latency samples go to the current slice's
// histogram; cur is -1 outside the window.
type slicer struct {
	cur   atomic.Int32
	lats  []*hist
	rates []float64
	cpus  []float64
	total int64

	t0     time.Time
	cpu0   time.Duration
	items0 int64
}

func newSlicer(n int) *slicer {
	s := &slicer{lats: make([]*hist, n)}
	for i := range s.lats {
		s.lats[i] = newHist()
	}
	s.cur.Store(-1)
	return s
}

// lat returns the current slice's latency histogram, nil outside the
// window.
func (s *slicer) lat() *hist {
	if i := s.cur.Load(); i >= 0 {
		return s.lats[i]
	}
	return nil
}

// begin opens the first slice; items is the delivered count so far.
func (s *slicer) begin(items int64) {
	s.t0, s.cpu0, s.items0 = time.Now(), cpuTime(), items
	s.cur.Store(0)
}

// cut closes the current slice and opens the next, or closes the window
// after the last slice. It reports whether the window is still open.
func (s *slicer) cut(items int64) bool {
	now, cpu := time.Now(), cpuTime()
	n := items - s.items0
	s.total += n
	s.rates = append(s.rates, float64(n)/now.Sub(s.t0).Seconds())
	if n > 0 {
		s.cpus = append(s.cpus, float64((cpu-s.cpu0).Microseconds())/float64(n))
	}
	s.t0, s.cpu0, s.items0 = now, cpu, items
	next := int(s.cur.Load()) + 1
	if next == len(s.lats) {
		s.cur.Store(-1)
		return false
	}
	s.cur.Store(int32(next))
	return true
}

// report sets items_per_s, cpu_us_per_item and the latency percentiles
// (in µs) from the slices; every slice must support p99 on its own.
func (s *slicer) report(rep *report) error {
	if s.total == 0 || len(s.cpus) < len(s.rates) {
		rep.violate("a measured slice delivered nothing")
		return nil
	}
	rep.rate = median(s.rates)
	rep.set("items_per_s", rep.rate, "items/s", s.total)
	rep.set("cpu_us_per_item", median(s.cpus), "us", int64(len(s.cpus)))
	pooled := newHist()
	for _, p := range []float64{50, 99} {
		var qs []float64
		for i, h := range s.lats {
			v, err := requireTail(h, p, fmt.Sprintf("latency slice %d", i))
			if err != nil {
				return err
			}
			qs = append(qs, v/1e3)
			if p == 50 {
				pooled.merge(h)
			}
		}
		rep.set(fmt.Sprintf("latency_p%g_us", p), median(qs), "us", pooled.n)
	}
	if tp := tailPercentile(pooled.n); tp > 99 {
		rep.set(fmt.Sprintf("latency_pooled_p%g_us", tp), pooled.quantile(tp)/1e3, "us", pooled.n)
	}
	return nil
}
