// Package serve is the simulation-as-a-service front-end: a long-running
// HTTP/JSON daemon over the coaxial library. Clients POST run/sweep/rack
// jobs to /v1/jobs; the server schedules them on a bounded worker pool
// with a queue-depth limit (saturation answers 429 + Retry-After), shares
// one Runner warm-state cache across all requests, single-flights
// identical in-flight points so N concurrent clients asking for the same
// sweep point cost one simulation, streams per-window partial results over
// chunked JSON lines, and cancels jobs (DELETE) returning the Runner's
// partial measurements.
//
// Determinism discipline: result payloads carry only simulated quantities
// (cycles, retired instructions, the usual Result metrics) — the wall
// clock appears exclusively in job *metadata* timestamps, supplied by an
// injected Clock, so the httptest suite is deterministic and the package
// sits inside coaxlint's determinism scope. All job-store
// mutations happen under the store lock; the -race suite is the proof.
//
// The wire schema is documented in testdata/serve/README.md (next to the
// golden corpus) and pinned by the golden wire files there.
package serve

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"time"

	"coaxial"
)

// Request bounds: a decoded job may not exceed these, keeping a single
// POST from monopolizing the daemon. Violations are 400s, not truncation.
const (
	// MaxHosts bounds rack scaling per point.
	MaxHosts = 16
	// MaxPoints bounds the preset × workload cross product of one sweep.
	MaxPoints = 64
	// MaxInstr bounds each simulation window (per core, instructions).
	MaxInstr = 200_000_000
	// maxRequestBytes bounds the request body read by DecodeJobRequest.
	maxRequestBytes = 1 << 20
)

// JobRequest is the POST /v1/jobs payload. Kind selects the shape:
//
//   - "run": one Preset × one Workload — a single simulation point.
//   - "sweep": Presets × Workloads — the capacity-planning grid, one point
//     per combination, executed in order.
//   - "rack": one Preset scaled to Hosts hosts sharing its pooled devices,
//     every active core of every host running Workload.
//
// Hosts also scales "run"/"sweep" points (a run at hosts > 1 is a rack
// point); 0 keeps each preset's own host count.
type JobRequest struct {
	Kind string `json:"kind"`

	Preset   string   `json:"preset,omitempty"`
	Presets  []string `json:"presets,omitempty"`
	Workload string   `json:"workload,omitempty"`

	Workloads []string `json:"workloads,omitempty"`

	Hosts       int `json:"hosts,omitempty"`
	ActiveCores int `json:"active_cores,omitempty"`

	Seed    uint64   `json:"seed,omitempty"`
	Windows *Windows `json:"windows,omitempty"`
	Sample  *Sample  `json:"sample,omitempty"`

	Clocking string `json:"clocking,omitempty"`
	Validate bool   `json:"validate,omitempty"`
}

// Windows overrides the default simulation windows (per core,
// instructions). Measure must be positive; a zero FunctionalWarmup keeps
// the library's 1M-instruction default; a zero Warmup disables the timed
// warmup.
type Windows struct {
	FunctionalWarmup uint64 `json:"functional_warmup,omitempty"`
	Warmup           uint64 `json:"warmup,omitempty"`
	Measure          uint64 `json:"measure"`
}

// Sample enables sampled simulation: detailed windows of Detail
// instructions alternate with functional fast-forward gaps of FastForward.
// Both must be positive together; incompatible with multi-host points.
type Sample struct {
	Detail      uint64 `json:"detail"`
	FastForward uint64 `json:"fast_forward"`
}

// RequestError is a client-side job-request defect (unknown preset,
// out-of-range windows, malformed shape); the HTTP layer maps it to 400.
type RequestError struct{ msg string }

func (e *RequestError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &RequestError{msg: fmt.Sprintf(format, args...)}
}

// DecodeJobRequest reads one JSON job request, rejecting unknown fields,
// trailing data, and bodies over maxRequestBytes. Decode errors (including
// negative values for unsigned fields) come back as *RequestError.
func DecodeJobRequest(r io.Reader) (JobRequest, error) {
	var q JobRequest
	dec := json.NewDecoder(io.LimitReader(r, maxRequestBytes))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&q); err != nil {
		return JobRequest{}, badRequestf("decoding job request: %v", err)
	}
	if dec.More() {
		return JobRequest{}, badRequestf("trailing data after job request")
	}
	return q, nil
}

// Point is one fully-resolved simulation: a coaxial.SuiteJob (a
// single-host config with per-core workloads, or a rack topology with
// per-host workload sets) plus the run configuration. Points with equal
// SuiteJob.Key share one execution in flight and one warm snapshot in the
// Runner cache.
type Point struct {
	// Label names the point in results ("coaxial-4x/stream-copy", ...).
	Label string
	coaxial.SuiteJob
	RC coaxial.RunConfig

	// Single is SuiteJob.Config for a single-host point and nil for a
	// rack: the host config as earlier callers of Point read it.
	Single *coaxial.Config
}

// stamp labels an outcome another point's flight produced with this
// point's own config names (the flight key ignores names). Waiters share
// the outcome, so the rack detail is relabeled on a copy; a Result no
// simulation wrote stays unlabeled.
func (p Point) stamp(out PointOutcome) PointOutcome {
	name := p.Config.Name
	if p.Rack != nil {
		name = p.Rack.Name
		if rr := out.Rack; rr != nil {
			c := *rr
			c.Config, c.Hosts = name, append([]coaxial.Result(nil), rr.Hosts...)
			for h := range c.Hosts {
				c.Hosts[h].Config = p.Rack.Hosts[h].Name
			}
			out.Rack = &c
		}
	}
	if out.Result.Config != "" {
		out.Result.Config = name
	}
	return out
}

// Points resolves and validates the request into its simulation points,
// in execution order. All defects come back as *RequestError.
func (q JobRequest) Points() ([]Point, error) {
	presets, workloads, err := q.grid()
	if err != nil {
		return nil, err
	}
	rc, err := q.runConfig()
	if err != nil {
		return nil, err
	}
	if len(presets)*len(workloads) > MaxPoints {
		return nil, badRequestf("%d points exceed the per-job limit of %d", len(presets)*len(workloads), MaxPoints)
	}
	points := make([]Point, 0, len(presets)*len(workloads))
	for _, pname := range presets {
		preset, err := coaxial.TopologyPresetByName(pname)
		if err != nil {
			return nil, badRequestf("%v", err)
		}
		if q.Hosts > 0 {
			preset = preset.WithHosts(q.Hosts)
		}
		for h := range preset.Rack.Hosts {
			if q.ActiveCores > 0 {
				if q.ActiveCores > preset.Rack.Hosts[h].Cores {
					return nil, badRequestf("active_cores %d exceeds %q's %d cores",
						q.ActiveCores, pname, preset.Rack.Hosts[h].Cores)
				}
				preset.Rack.Hosts[h] = preset.Rack.Hosts[h].WithActiveCores(q.ActiveCores)
			}
		}
		if len(preset.Rack.Hosts) > 1 && q.Sample != nil {
			return nil, badRequestf("sampled simulation is incompatible with multi-host points")
		}
		for _, wname := range workloads {
			w, err := coaxial.WorkloadByName(wname)
			if err != nil {
				return nil, badRequestf("%v", err)
			}
			p, err := buildPoint(preset, w, rc)
			if err != nil {
				return nil, err
			}
			points = append(points, p)
		}
	}
	return points, nil
}

// grid normalizes the request kind into the preset × workload lists.
func (q JobRequest) grid() (presets, workloads []string, err error) {
	switch q.Kind {
	case "run", "rack":
		if q.Preset == "" || q.Workload == "" {
			return nil, nil, badRequestf("%s job needs preset and workload", q.Kind)
		}
		if len(q.Presets) > 0 || len(q.Workloads) > 0 {
			return nil, nil, badRequestf("%s job takes singular preset/workload, not lists", q.Kind)
		}
		if q.Kind == "rack" && q.Hosts < 1 {
			return nil, nil, badRequestf("rack job needs hosts >= 1")
		}
		return []string{q.Preset}, []string{q.Workload}, nil
	case "sweep":
		if len(q.Presets) == 0 || len(q.Workloads) == 0 {
			return nil, nil, badRequestf("sweep job needs non-empty presets and workloads lists")
		}
		if q.Preset != "" || q.Workload != "" {
			return nil, nil, badRequestf("sweep job takes presets/workloads lists, not singular fields")
		}
		return q.Presets, q.Workloads, nil
	case "":
		return nil, nil, badRequestf("missing job kind (want run, sweep, or rack)")
	default:
		return nil, nil, badRequestf("unknown job kind %q (want run, sweep, or rack)", q.Kind)
	}
}

// runConfig translates the request's run parameters, applying defaults and
// bounds.
func (q JobRequest) runConfig() (coaxial.RunConfig, error) {
	rc := coaxial.DefaultRunConfig()
	if q.Seed > 0 {
		rc.Seed = q.Seed
	}
	if q.Hosts < 0 || q.Hosts > MaxHosts {
		return rc, badRequestf("hosts %d out of range [0, %d]", q.Hosts, MaxHosts)
	}
	if q.ActiveCores < 0 {
		return rc, badRequestf("active_cores must be >= 0")
	}
	if w := q.Windows; w != nil {
		if w.Measure == 0 {
			return rc, badRequestf("windows.measure must be > 0")
		}
		if w.Measure > MaxInstr || w.Warmup > MaxInstr || w.FunctionalWarmup > MaxInstr {
			return rc, badRequestf("simulation windows exceed the %d-instruction limit", MaxInstr)
		}
		rc.FunctionalWarmupInstr = w.FunctionalWarmup
		rc.WarmupInstr = w.Warmup
		rc.MeasureInstr = w.Measure
	}
	if sp := q.Sample; sp != nil {
		if sp.Detail == 0 || sp.FastForward == 0 {
			return rc, badRequestf("sample needs both detail and fast_forward > 0")
		}
		if sp.Detail > MaxInstr || sp.FastForward > MaxInstr {
			return rc, badRequestf("sample windows exceed the %d-instruction limit", MaxInstr)
		}
		rc.SampleDetailInstr = sp.Detail
		rc.SampleFastFwdInstr = sp.FastForward
	}
	switch q.Clocking {
	case "", "event":
		rc.Clocking = coaxial.EventDriven
	case "cycle":
		rc.Clocking = coaxial.CycleByCycle
	default:
		return rc, badRequestf("unknown clocking %q (want event or cycle)", q.Clocking)
	}
	rc.Validate = q.Validate
	return rc, nil
}

// buildPoint assembles one resolved point from a scaled preset.
func buildPoint(preset coaxial.TopologyPreset, w coaxial.Workload, rc coaxial.RunConfig) (Point, error) {
	p := Point{Label: preset.Name + "/" + w.Params.Name, RC: rc}
	onActive := func(c coaxial.Config) []coaxial.Workload { // w on every active core
		n := c.ActiveCores
		if n == 0 {
			n = c.Cores
		}
		wl := make([]coaxial.Workload, n)
		for i := range wl {
			wl[i] = w
		}
		return wl
	}
	if cfg, ok := preset.Single(); ok {
		p.Config, p.Workloads, p.Single = cfg, onActive(cfg), &cfg
		return p, nil
	}
	rack := preset.Rack
	if err := rack.Validate(); err != nil {
		return Point{}, badRequestf("%v", err)
	}
	p.Rack = &rack
	for _, hc := range rack.Hosts {
		p.HostWorkloads = append(p.HostWorkloads, onActive(hc))
	}
	return p, nil
}

// IsRequestError reports whether err is a client-side request defect.
func IsRequestError(err error) bool {
	var re *RequestError
	return errors.As(err, &re)
}

// Clock supplies wall-clock timestamps for job metadata (created/started/
// finished). The daemon injects time.Now; tests inject fakes; the default
// is a deterministic synthetic clock — simulated measurements never touch
// it, keeping result payloads reproducible bit-for-bit.
type Clock func() time.Time
