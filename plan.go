package coaxial

import (
	"context"
	"fmt"
)

// Plan is one experiment plan: figure and ablation drivers declare the
// simulation points they need, Run executes each distinct point (by
// SuiteJob.Key) once through the plan's Runner, and every driver then
// reads its rows back, each Result stamped with the config name the
// driver asked for. The declaring methods mirror the package-level
// drivers of the same names (which are one-driver plans) and return a
// function yielding the driver's rows once Run has returned. A Plan is
// not safe for concurrent use.
type Plan struct {
	r       *Runner
	jobs    []SuiteJob     // distinct points, in first-declared order
	index   map[string]int // Key -> jobs index
	asked   []planned      // every declared point
	results []Result
	errs    []error
}

// planned is one declared point: the config (or rack) name its driver
// asked for and the distinct simulation that answers it.
type planned struct {
	name string
	slot int
}

// Plan returns an empty plan whose points run on r.
func (r *Runner) Plan() *Plan {
	return &Plan{r: r, index: make(map[string]int)}
}

// Points reports how many points the drivers declared and how many
// distinct simulations Run executes for them.
func (p *Plan) Points() (requested, distinct int) { return len(p.asked), len(p.jobs) }

// Run executes every distinct point through the Runner's suite fan-out.
// Failures reach the drivers' readers as errors; cancellation stops the
// run at cycle-window boundaries like Runner.RunSuite.
func (p *Plan) Run(ctx context.Context) {
	p.results, p.errs = p.r.runSuite(ctx, p.jobs)
}

// add declares one point; handles for result count declarations from 0.
func (p *Plan) add(j SuiteJob) {
	k := j.Key(p.r.rc)
	slot, ok := p.index[k]
	if !ok {
		slot = len(p.jobs)
		p.index[k] = slot
		p.jobs = append(p.jobs, j)
	}
	name := j.Config.Name
	if j.Rack != nil {
		name = j.Rack.Name
	}
	p.asked = append(p.asked, planned{name: name, slot: slot})
}

// result returns declared point h's Result, stamped with the name it was
// declared under (the key ignores names). A Result no simulation wrote
// (a rejected config) stays unlabeled.
func (p *Plan) result(h int) (Result, error) {
	a := p.asked[h]
	res := p.results[a.slot]
	if res.Config != "" {
		res.Config = a.name
	}
	return res, p.errs[a.slot]
}

// rows declares each group of jobs and maps group i's results, in order,
// to row i; its reader returns the first failure instead. A point several
// groups share (say, a baseline every row compares against) still
// simulates once.
func rows[T any](p *Plan, groups [][]SuiteJob, row func(i int, res []Result) T) func() ([]T, error) {
	first := len(p.asked)
	for _, g := range groups {
		for _, j := range g {
			p.add(j)
		}
	}
	return func() ([]T, error) {
		out, h := make([]T, len(groups)), first
		for i, g := range groups {
			res := make([]Result, len(g))
			for k, j := range g {
				var err error
				if res[k], err = p.result(h); err != nil {
					return nil, fmt.Errorf("%s: %w", j.label(), err)
				}
				h++
			}
			out[i] = row(i, res)
		}
		return out, nil
	}
}

// gridRows declares every config on every workload, one row per
// workload from its results in config order.
func gridRows[T any](p *Plan, cfgs []Config, workloads []Workload, row func(w Workload, res []Result) T) func() ([]T, error) {
	groups := make([][]SuiteJob, len(workloads))
	for i, w := range workloads {
		groups[i] = rateJobs(w, cfgs...)
	}
	return rows(p, groups, func(i int, res []Result) T { return row(workloads[i], res) })
}

// rateJobs returns one rate-mode job per config, all running w.
func rateJobs(w Workload, cfgs ...Config) []SuiteJob {
	jobs := make([]SuiteJob, len(cfgs))
	for i, c := range cfgs {
		jobs[i] = SuiteJob{Config: c, Workload: w}
	}
	return jobs
}

// planOne runs one driver as a one-driver plan: the package-level drivers
// are thin wrappers over their Plan declarations.
func planOne[T any](rc RunConfig, declare func(*Plan) func() (T, error)) (T, error) {
	p := NewRunner(WithRunConfig(rc)).Plan()
	read := declare(p)
	p.Run(context.Background())
	return read()
}
