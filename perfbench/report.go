package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
)

// metricDef names one reported metric and its unit. The lists below are
// the benchmark's schema; BENCHMARK.json at the repository root mirrors
// them (TestSchemaMatchesBenchmarkJSON).
type metricDef struct {
	Name, Unit string
}

// endToEnd are the metrics a user of the simulator sees, printed by every
// untraced run of every workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"kips", "kinstr/s"},
	{"points_per_s", "1/s"},
	{"window_ms_p50", "ms"},
	{"window_ms_tail", "ms"},
	{"job_ms_p50", "ms"},
	{"job_ms_tail", "ms"},
	{"peak_rss_mb", "MB"},
}

// layers are the attribution buckets of the traced run's CPU profile,
// named after the repository's modules (see foldMap), plus the runtime's
// own GC and scheduler work, the benchmark harness, and other.
var layers = []string{
	"trace", "cpu", "cache", "calm", "noc", "dram", "cxl", "memreq",
	"sim", "rack", "coaxial", "serve", "runtime", "harness", "other",
}

// perLayer are the traced run's metrics: every layer's profiled self time
// per simulated kilo-instruction, span medians, and exact counts from
// Result, WarmStats, /metrics and runtime/metrics.
var perLayer = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_ns_per_kinstr", "ns/kinstr"})
	}
	return append(defs,
		metricDef{"sim.capture_ms", "ms"},
		metricDef{"serve.submit_ms", "ms"},
		metricDef{"serve.queue_ms", "ms"},
		metricDef{"serve.engine_ms", "ms"},
		metricDef{"serve.deliver_ms", "ms"},
		metricDef{"cpu.retired", "instr/point"},
		metricDef{"sim.cycles", "cycles/point"},
		metricDef{"sim.host_ns_per_cycle", "ns/cycle"},
		metricDef{"cache.llc_mpki", "MPKI"},
		metricDef{"calm.useful_ratio", "ratio"},
		metricDef{"dram.row_hit_ratio", "ratio"},
		metricDef{"dram.queue_ns", "ns"},
		metricDef{"dram.utilization", "ratio"},
		metricDef{"cxl.port_ns", "ns"},
		metricDef{"rack.device_queue_p99_ns", "ns"},
		metricDef{"rack.fairness", "ratio"},
		metricDef{"coaxial.warm_hit_ratio", "ratio"},
		metricDef{"coaxial.warm_entries", "count"},
		metricDef{"serve.coalesced_ratio", "ratio"},
		metricDef{"serve.rejected", "count"},
		metricDef{"runtime.mallocs_per_window", "count"},
		metricDef{"runtime.gc_share", "ratio"},
	)
}()

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// report collects one run's figures: every metric of the schema by name,
// free-form notes printed beside them, and the operation tallies.
type report struct {
	values    map[string]float64
	notes     map[string]string
	attempted int
	failed    int
	failures  []string
}

func newReport() *report {
	return &report{values: map[string]float64{}, notes: map[string]string{}}
}

func (r *report) set(name string, v float64) { r.values[name] = v }

// note attaches a human-readable qualifier to a metric's printed line.
func (r *report) note(name, format string, args ...any) {
	r.notes[name] = fmt.Sprintf(format, args...)
}

// setTail records a tail metric at the percentile tail chooses for the
// nominal sample count, and notes the percentile and the sample counts.
func (r *report) setTail(name string, xs []float64, nominal int) {
	p, v, beyond, ok := tail(xs, nominal)
	r.set(name, v)
	q := ""
	if !ok {
		q = ", too few samples for a tail: median shown"
	}
	r.note(name, "p%g for nominal n=%d, %d samples beyond, n=%d%s", p, nominal, beyond, len(xs), q)
}

// op counts one attempted operation, failed when err is non-nil.
func (r *report) op(err error) {
	r.attempted++
	if err != nil {
		r.fail(err)
	}
}

// fail records a failed operation or correctness check.
func (r *report) fail(err error) {
	r.failed++
	if len(r.failures) < 20 {
		r.failures = append(r.failures, err.Error())
	}
}

type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// write prints every metric the run measured as "name value unit" lines,
// the failures, and last the one-line JSON result carrying the schema
// selected by traced. It fails if a schema metric was never measured.
func (r *report) write(w io.Writer, traced bool) error {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	names := make([]string, 0, len(r.values))
	for n := range r.values {
		names = append(names, n)
	}
	sort.Strings(names)
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		units[d.Name] = d.Unit
	}
	for _, n := range names {
		line := fmt.Sprintf("metric %-32s %14.6g %s", n, r.values[n], units[n])
		if s := r.notes[n]; s != "" {
			line += " (" + s + ")"
		}
		fmt.Fprintln(w, line)
	}
	if r.attempted > 0 {
		fmt.Fprintf(w, "error_rate %.6g (%d of %d operations failed, were refused or failed a check)\n",
			float64(r.failed)/float64(r.attempted), r.failed, r.attempted)
	}
	for _, f := range r.failures {
		fmt.Fprintln(w, "FAIL", f)
	}
	out := resultLine{Correct: r.failed == 0, Attempted: r.attempted, Failed: r.failed, Metrics: map[string]jsonMetric{}}
	for _, d := range defs {
		v, ok := r.values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("metric %s is %v", d.Name, v)
		}
		out.Metrics[d.Name] = jsonMetric{Value: v, Unit: d.Unit}
	}
	if out.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	b, err := json.Marshal(out)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}
