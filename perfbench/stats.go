package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// percentile returns the p-th percentile (0 ≤ p ≤ 100) of xs by linear
// interpolation between closest ranks, the same rule as Python's
// statistics.quantiles(method="inclusive"). xs is not modified; an
// empty input yields 0.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// median is the 50th percentile.
func median(xs []float64) float64 { return percentile(xs, 50) }

// dueTime is when the i-th request of an open-loop schedule starting at
// start with the given period is due to be sent.
func dueTime(start time.Time, period time.Duration, i int) time.Time {
	return start.Add(time.Duration(i) * period)
}

// openLoopTiming splits one open-loop request into the two figures the
// benchmark reports: latency from the moment the request was due (so a
// stall is charged to every request queued behind it) and how late the
// generator actually sent it. A request sent early counts as on time.
func openLoopTiming(due, sent, done time.Time) (latency, late time.Duration) {
	latency = done.Sub(due)
	late = sent.Sub(due)
	if late < 0 {
		late = 0
	}
	return latency, late
}

// peakRSSMB is the process's peak resident set size in MiB, from
// getrusage (ru_maxrss is in KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// goCounters is a reading of the Go runtime's allocation and GC
// totals.
type goCounters struct {
	allocBytes uint64
	mallocs    uint64
	gcCycles   uint32
	gcCPU      float64
}

func readGoCounters() goCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	sample := []metrics.Sample{{Name: "/cpu/classes/gc/total:cpu-seconds"}}
	metrics.Read(sample)
	c := goCounters{allocBytes: ms.TotalAlloc, mallocs: ms.Mallocs, gcCycles: ms.NumGC}
	if sample[0].Value.Kind() == metrics.KindFloat64 {
		c.gcCPU = sample[0].Value.Float64()
	}
	return c
}

func (c goCounters) add(d goCounters) goCounters {
	return goCounters{c.allocBytes + d.allocBytes, c.mallocs + d.mallocs, c.gcCycles + d.gcCycles, c.gcCPU + d.gcCPU}
}

func (c goCounters) sub(d goCounters) goCounters {
	return goCounters{c.allocBytes - d.allocBytes, c.mallocs - d.mallocs, c.gcCycles - d.gcCycles, c.gcCPU - d.gcCPU}
}

// metrics reports the counters divided by per (the number of runs, or
// seconds of traffic, they were accumulated over).
func (c goCounters) metrics(per float64) []metric {
	return []metric{
		{"go.alloc_mb", float64(c.allocBytes) / (1 << 20) / per, "MB"},
		{"go.mallocs", float64(c.mallocs) / per, "count"},
		{"go.gc_cycles", float64(c.gcCycles) / per, "count"},
		{"go.gc_cpu_s", c.gcCPU / per, "s"},
	}
}
