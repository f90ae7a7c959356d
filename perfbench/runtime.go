package main

import (
	"runtime/metrics"
	"syscall"
)

// peakRSSMB is the process's peak resident set size from getrusage. On
// Linux ru_maxrss is in KiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}

// runtimeSample is a reading of the runtime/metrics counters the
// benchmark reports: heap objects allocated, and the runtime's estimate of
// CPU time spent in the GC and in total.
type runtimeSample struct {
	mallocs       uint64
	gcCPU, allCPU float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	var r runtimeSample
	if s[0].Value.Kind() == metrics.KindUint64 {
		r.mallocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindFloat64 {
		r.gcCPU = s[1].Value.Float64()
	}
	if s[2].Value.Kind() == metrics.KindFloat64 {
		r.allCPU = s[2].Value.Float64()
	}
	return r
}

// runtimeDelta reports mallocs per point and the GC's share of CPU time
// between two readings.
func runtimeDelta(a, b runtimeSample, points int) (mallocsPerPoint, gcShare float64) {
	if points > 0 {
		mallocsPerPoint = float64(b.mallocs-a.mallocs) / float64(points)
	}
	if cpu := b.allCPU - a.allCPU; cpu > 0 {
		gcShare = (b.gcCPU - a.gcCPU) / cpu
	}
	return mallocsPerPoint, gcShare
}
