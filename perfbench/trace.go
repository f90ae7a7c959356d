package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"sync"
	"time"
)

// span is one timed interval around a call into the simulator. Spans of
// one operation (a window, a serve job) share an ID.
type span struct {
	ID      string `json:"id"`
	Name    string `json:"name"`
	StartNS int64  `json:"start_ns"`
	DurNS   int64  `json:"dur_ns"`
}

// tracer keeps spans in memory while on; they are written out when the
// run ends. A nil or off tracer records nothing.
type tracer struct {
	mu    sync.Mutex
	on    bool
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) setOn(on bool) {
	t.mu.Lock()
	t.on = on
	t.mu.Unlock()
}

// add records the span [start, end) under id if tracing is on.
func (t *tracer) add(id, name string, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if !t.on {
		return
	}
	t.spans = append(t.spans, span{ID: id, Name: name, StartNS: start.Sub(t.t0).Nanoseconds(), DurNS: end.Sub(start).Nanoseconds()})
}

// durationsMS returns the durations of every span called name, in ms.
func (t *tracer) durationsMS(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.DurNS)/1e6)
		}
	}
	return out
}

// writeJSONL writes the spans, one JSON object a line.
func (t *tracer) writeJSONL(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// foldMap charges a profiled frame's package to a layer. It covers every
// package under internal/ plus the root package: simulator packages are
// their own layer; area, capacity and power are analytical models the
// root package drives; validate observes a System from inside its step
// loop; lint never runs in a simulation. Packages mapped to "" are
// helpers (clock conversions, stats histograms, profiling) whose time is
// charged to the nearest caller, like the standard library's.
var foldMap = map[string]string{
	"coaxial":                            "coaxial",
	"coaxial/internal/area":              "coaxial",
	"coaxial/internal/capacity":          "coaxial",
	"coaxial/internal/power":             "coaxial",
	"coaxial/internal/cache":             "cache",
	"coaxial/internal/calm":              "calm",
	"coaxial/internal/cpu":               "cpu",
	"coaxial/internal/cxl":               "cxl",
	"coaxial/internal/dram":              "dram",
	"coaxial/internal/memreq":            "memreq",
	"coaxial/internal/noc":               "noc",
	"coaxial/internal/rack":              "rack",
	"coaxial/internal/serve":             "serve",
	"coaxial/internal/sim":               "sim",
	"coaxial/internal/trace":             "trace",
	"coaxial/internal/validate":          "sim",
	"coaxial/internal/lint":              "other",
	"coaxial/internal/lint/analysis":     "other",
	"coaxial/internal/lint/loader":       "other",
	"coaxial/internal/lint/analysistest": "other",
	"coaxial/internal/clock":             "",
	"coaxial/internal/stats":             "",
	"coaxial/internal/profiling":         "",
	"main":                               "harness",
	"coaxial/perfbench":                  "harness", // package main, as named in its test binary
}

// framePackage returns the import path of the package a symbol such as
// "coaxial/internal/dram.(*SubChannel).Tick" or "runtime.mallocgc"
// belongs to. Type arguments of generic instantiations are ignored.
func framePackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i]
	}
	dir := ""
	if i := strings.LastIndexByte(fn, '/'); i >= 0 {
		dir, fn = fn[:i+1], fn[i+1:]
	}
	if i := strings.IndexByte(fn, '.'); i >= 0 {
		fn = fn[:i]
	}
	return dir + fn
}

// layerOf attributes one sample's stack, leaf first, to a layer: the
// first frame in a repository package that is not a helper names it.
// Standard-library frames are charged to that nearest repository caller.
// A stack with no repository frame is the runtime's own work (GC
// workers, the scheduler) when it holds a runtime frame, and other
// otherwise.
func layerOf(stack []string) string {
	runtimeSeen := false
	for _, fn := range stack {
		pkg := framePackage(fn)
		if l, ok := foldMap[pkg]; ok {
			if l != "" {
				return l
			}
			continue
		}
		if pkg == "runtime" || strings.HasPrefix(pkg, "runtime/") {
			runtimeSeen = true
		}
	}
	if runtimeSeen {
		return "runtime"
	}
	return "other"
}

// layerTable is the traced run's CPU attribution: sampled CPU time per
// layer and the total over every sample.
type layerTable struct {
	ns      map[string]int64
	samples map[string]int64
	totalNS int64
	total   int64
}

// foldProfile folds a CPU profile's samples into layers.
func foldProfile(p *profile) layerTable {
	t := layerTable{ns: map[string]int64{}, samples: map[string]int64{}}
	for _, s := range p.samples {
		l := layerOf(s.stack)
		t.ns[l] += s.ns
		t.samples[l] += s.count
		t.totalNS += s.ns
		t.total += s.count
	}
	return t
}

// write prints the table, one layer a line by descending CPU time, with
// the share and the self time per simulated kilo-instruction, and a total
// line showing that every sample is accounted for.
func (t layerTable) write(w io.Writer, kinstr float64) {
	names := append([]string(nil), layers...)
	sort.SliceStable(names, func(i, j int) bool { return t.ns[names[i]] > t.ns[names[j]] })
	fmt.Fprintf(w, "%-10s %8s %12s %7s %14s\n", "layer", "samples", "cpu_ms", "share", "ns/kinstr")
	var sum, sumNS int64
	for _, l := range names {
		share := 0.0
		if t.totalNS > 0 {
			share = 100 * float64(t.ns[l]) / float64(t.totalNS)
		}
		fmt.Fprintf(w, "%-10s %8d %12.1f %6.1f%% %14.1f\n", l, t.samples[l], float64(t.ns[l])/1e6, share, perKinstr(t.ns[l], kinstr))
		sum += t.samples[l]
		sumNS += t.ns[l]
	}
	fmt.Fprintf(w, "%-10s %8d %12.1f %6.1f%% %14.1f  (all %d samples accounted for: %v)\n",
		"total", sum, float64(sumNS)/1e6, 100.0, perKinstr(sumNS, kinstr), t.total, sum == t.total)
}

func perKinstr(ns int64, kinstr float64) float64 {
	if kinstr <= 0 {
		return 0
	}
	return float64(ns) / kinstr
}
