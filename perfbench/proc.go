package main

import (
	"runtime"
	"syscall"
	"time"
)

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSBytes is the process's peak resident set size so far (Linux
// reports ru_maxrss in KiB).
func peakRSSBytes() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss * 1024
}

// procWindow brackets a measurement window with the allocation and GC
// counters the per-layer process metrics divide.
type procWindow struct {
	wall           time.Time
	alloc, numGC   uint64
	elapsed        time.Duration
	allocBytes, gc uint64
}

func (w *procWindow) start() {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.alloc, w.numGC = ms.TotalAlloc, uint64(ms.NumGC)
	w.wall = time.Now()
}

func (w *procWindow) stop() {
	w.elapsed = time.Since(w.wall)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	w.allocBytes, w.gc = ms.TotalAlloc-w.alloc, uint64(ms.NumGC)-w.numGC
}

// report sets the process-level metrics every workload shares: set-up
// time, peak RSS, and the window's allocation and GC rates.
func (w *procWindow) report(rep *report, items float64, setups []float64) {
	rep.set("setup_s", median(setups), "s", int64(len(setups)))
	rep.set("rss_peak_mb", float64(peakRSSBytes())/(1<<20), "MB", 0)
	rep.set("process.alloc_bytes_per_item", float64(w.allocBytes)/items, "B", 0)
	rep.set("process.gc_cycles_per_s", float64(w.gc)/w.elapsed.Seconds(), "1/s", 0)
}
