package serve

import (
	"context"

	"coaxial"
)

// PointOutcome is one executed point's measurements: the headline Result
// (for rack points, the RackResult summary — per-core IPCs concatenated
// across hosts, traffic summed) plus, for racks, the full per-host and
// per-device detail.
type PointOutcome struct {
	Result coaxial.Result      `json:"result"`
	Rack   *coaxial.RackResult `json:"rack,omitempty"`
}

// Engine is the simulation backend the scheduler drives. The production
// engine wraps one shared coaxial.Runner; tests substitute counting or
// blocking fakes to pin scheduler behavior without paying for simulations.
//
// RunPoint honors ctx (returning salvaged partial measurements alongside
// the cancellation error, like the Runner it fronts) and reports
// per-window progress through onProgress when non-nil.
type Engine interface {
	RunPoint(ctx context.Context, p Point, onProgress func(coaxial.Progress)) (PointOutcome, error)
}

// WarmStater is optionally implemented by engines exposing warm-state
// cache statistics (the Runner-backed engine does); /metrics reports them.
type WarmStater interface {
	WarmStats() coaxial.WarmStats
}

// runnerEngine adapts one shared Runner. Every point derives a child
// Runner carrying the point's RunConfig and progress observer while
// sharing the parent's warm-state cache, so all jobs — concurrent or
// sequential — reuse each other's warm snapshots.
type runnerEngine struct {
	r *coaxial.Runner
}

// NewRunnerEngine wraps r as the service's simulation backend.
func NewRunnerEngine(r *coaxial.Runner) Engine {
	return &runnerEngine{r: r}
}

func (e *runnerEngine) RunPoint(ctx context.Context, p Point, onProgress func(coaxial.Progress)) (PointOutcome, error) {
	rc := p.RC
	rc.OnProgress = onProgress
	r := e.r.With(coaxial.WithRunConfig(rc))
	if p.Rack != nil {
		rr, err := r.RunRack(ctx, *p.Rack, p.HostWorkloads)
		out := PointOutcome{Result: rr.Summary()}
		if len(rr.Hosts) > 0 {
			out.Rack = &rr
		}
		return out, err
	}
	res, err := r.RunMix(ctx, p.Config, p.Workloads)
	return PointOutcome{Result: res}, err
}

func (e *runnerEngine) WarmStats() coaxial.WarmStats { return e.r.WarmStats() }
