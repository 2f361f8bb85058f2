package main

import (
	"crypto/sha256"
	"math"
	"runtime"
	"runtime/metrics"
	"slices"
	"syscall"
	"time"
)

// median returns the middle value of xs (the mean of the two middle values
// for an even count); 0 for an empty slice. xs is not modified.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank p-quantile (0 < p ≤ 1) of xs.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := int(math.Ceil(p*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

// tailSamples is how many samples must lie beyond a reported percentile
// for it to count as measured rather than extrapolated.
const tailSamples = 10

// highestPercentile is the highest of the conventional percentiles that
// leaves at least tailSamples samples beyond it, and its label.
func highestPercentile(n int) (p float64, label string) {
	for _, c := range []struct {
		p     float64
		label string
	}{{0.999, "p99.9"}, {0.99, "p99"}, {0.95, "p95"}, {0.9, "p90"}} {
		if float64(n)*(1-c.p) >= tailSamples {
			return c.p, c.label
		}
	}
	return 0.5, "p50"
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// usage is the process's CPU time (user + system, getrusage) covering
// every thread — query workers, the GC and the client goroutine alike —
// and its major page faults (reads that had to go to disk).
type usage struct {
	cpu         time.Duration
	majorFaults int64
}

func readUsage() usage {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return usage{}
	}
	return usage{cpu: time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), majorFaults: ru.Majflt}
}

// runtimeCounters is a snapshot of the runtime figures the benchmark
// reports as deltas over a timed phase.
type runtimeCounters struct {
	allocObjects uint64
	allocBytes   uint64
	gcCycles     uint64
	gcCPU        float64 // seconds
	totalCPU     float64 // seconds, as the runtime accounts it
}

// readRuntime takes allocation and GC counts from ReadMemStats, which is
// exact (see allocCounter), and the CPU split from runtime/metrics.
func readRuntime() runtimeCounters {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	metrics.Read(s)
	return runtimeCounters{
		allocObjects: ms.Mallocs,
		allocBytes:   ms.TotalAlloc,
		gcCycles:     uint64(ms.NumGC),
		gcCPU:        s[0].Value.Float64(),
		totalCPU:     s[1].Value.Float64(),
	}
}

func (a runtimeCounters) sub(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocObjects: a.allocObjects - b.allocObjects,
		allocBytes:   a.allocBytes - b.allocBytes,
		gcCycles:     a.gcCycles - b.gcCycles,
		gcCPU:        a.gcCPU - b.gcCPU,
		totalCPU:     a.totalCPU - b.totalCPU,
	}
}

func (a runtimeCounters) add(b runtimeCounters) runtimeCounters {
	return runtimeCounters{
		allocObjects: a.allocObjects + b.allocObjects,
		allocBytes:   a.allocBytes + b.allocBytes,
		gcCycles:     a.gcCycles + b.gcCycles,
		gcCPU:        a.gcCPU + b.gcCPU,
		totalCPU:     a.totalCPU + b.totalCPU,
	}
}

// allocCounter reads the cumulative count of heap objects allocated, as
// the traced run does around every layer call. It uses ReadMemStats, which
// flushes every P's allocation cache first: runtime/metrics counts a small
// object only when its cached span is refilled, which makes a per-call
// delta of a few allocations read as 0 or as a whole span.
type allocCounter struct{ ms runtime.MemStats }

func newAllocCounter() *allocCounter { return &allocCounter{} }

func (c *allocCounter) read() uint64 {
	runtime.ReadMemStats(&c.ms)
	return c.ms.Mallocs
}

// liveHeapBytes forces a full collection and returns the heap the
// collector found live.
func liveHeapBytes() uint64 {
	runtime.GC()
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// hostProbe times a fixed in-cache CPU loop (SHA-256 over 64 KiB, 512
// times) five times and returns the median. Its result depends only on how
// fast the host runs right now, so comparing the probe before and after a
// workload separates host drift from a change in the program. It is a
// diagnostic, never a gated metric.
func hostProbe() time.Duration {
	buf := make([]byte, 64<<10)
	for i := range buf {
		buf[i] = byte(i)
	}
	times := make([]float64, 5)
	for t := range times {
		start := time.Now()
		for i := 0; i < 512; i++ {
			sum := sha256.Sum256(buf)
			buf[0] = sum[0]
		}
		times[t] = float64(time.Since(start))
	}
	return time.Duration(median(times))
}
