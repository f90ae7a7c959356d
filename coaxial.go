// Package coaxial is a simulation library reproducing "COAXIAL: A
// CXL-Centric Memory System for Scalable Servers" (SC 2024): a manycore
// server whose processor attaches *all* memory over pin-efficient CXL
// channels instead of DDR, trading interface latency for a large memory
// bandwidth boost that shrinks queuing delays, plus the CALM mechanism that
// overlaps LLC and memory access.
//
// The package exposes the simulated systems (DDR baseline and the COAXIAL
// variants of Table II), the paper's 36 synthetic workloads (Table IV), the
// experiment drivers regenerating every figure and table of the evaluation,
// and the silicon-area and power models.
//
// Quick start:
//
//	w, _ := coaxial.WorkloadByName("stream-copy")
//	base, _ := coaxial.Run(coaxial.Baseline(), w, coaxial.DefaultRunConfig())
//	coax, _ := coaxial.Run(coaxial.Coaxial4x(), w, coaxial.DefaultRunConfig())
//	fmt.Printf("speedup: %.2fx\n", coax.IPC/base.IPC)
package coaxial

import (
	"context"
	"fmt"
	"math"

	"coaxial/internal/calm"
	"coaxial/internal/power"
	"coaxial/internal/sim"
	"coaxial/internal/stats"
	"coaxial/internal/trace"
)

// Core simulation types, re-exported from the engine.
type (
	// Config describes one simulated system (Table III).
	Config = sim.Config
	// RunConfig controls warmup and measurement windows.
	RunConfig = sim.RunConfig
	// Result carries one experiment's measurements.
	Result = sim.Result
	// Workload couples generator parameters with the paper's published
	// baseline numbers.
	Workload = trace.Workload
	// WorkloadParams are the synthetic generator knobs.
	WorkloadParams = trace.Params
	// CALMConfig selects a concurrent LLC/memory access mechanism.
	CALMConfig = calm.Config
	// CALMDecisions tallies CALM outcomes (Fig. 7b).
	CALMDecisions = calm.Decisions
	// Clocking selects the simulator's main-loop time advance
	// (RunConfig.Clocking).
	Clocking = sim.Clocking
	// Progress is one per-window phase-progress observation delivered to
	// RunConfig.OnProgress / WithProgress observers.
	Progress = sim.Progress
)

// Clocking modes. EventDriven (the default) fast-forwards over dead cycles
// and is bit-identical to the CycleByCycle reference loop.
const (
	EventDriven  = sim.EventDriven
	CycleByCycle = sim.CycleByCycle
)

// CALM mechanism kinds (§IV-C).
const (
	CALMOff       = calm.Off
	CALMRegulated = calm.Regulated
	CALMMAPI      = calm.MAPI
	CALMIdeal     = calm.Ideal
)

// System presets (Table II / Table III).
var (
	// Baseline is the DDR-based server: 12 cores, one DDR5-4800 channel,
	// 2 MB LLC/core.
	Baseline = sim.Baseline
	// Coaxial2x doubles memory bandwidth over CXL at iso-LLC.
	Coaxial2x = sim.Coaxial2x
	// Coaxial4x is the default COAXIAL: 4x bandwidth, LLC halved.
	Coaxial4x = sim.Coaxial4x
	// Coaxial5x is the iso-pin variant (more die area).
	Coaxial5x = sim.Coaxial5x
	// CoaxialAsym provisions CXL lanes asymmetrically (20RX/12TX) with
	// two DDR channels per device (§IV-D).
	CoaxialAsym = sim.CoaxialAsym
	// CoaxialPooled is the CXL-pooled rack variant: 2 CXL channels, each
	// fronting a two-DDR-channel pool device with a deeper ingress queue.
	CoaxialPooled = sim.CoaxialPooled
)

// ValidationError is the aggregated report returned by validation-enabled
// runs (WithValidation / RunConfig.Validate) that observed DDR timing or
// request-lifecycle invariant violations. The accompanying Result is still
// complete.
type ValidationError = sim.ValidationError

// DefaultRunConfig returns the standard experiment windows.
func DefaultRunConfig() RunConfig { return sim.DefaultRunConfig() }

// DefaultCALM returns the paper's default mechanism, CALM_70%.
func DefaultCALM() CALMConfig { return calm.Default() }

// CALMR returns the bandwidth-regulated mechanism at threshold r (0..1).
func CALMR(r float64) CALMConfig { return CALMConfig{Kind: calm.Regulated, R: r} }

// Workloads returns the full 36-workload suite (Table IV order).
func Workloads() []Workload { return trace.Workloads() }

// WorkloadByName looks up one workload.
func WorkloadByName(name string) (Workload, error) { return trace.WorkloadByName(name) }

// WorkloadNames returns the suite's names in Table IV order.
func WorkloadNames() []string { return trace.Names() }

// MixWorkloads returns the per-core assignment of workload mix idx
// (Fig. 6; deterministic sampling with replacement).
func MixWorkloads(idx, cores int) []Workload { return trace.Mix(idx, cores) }

// RackMixWorkloads returns the per-core assignment of mixed-MPKI rack mix
// idx: even core slots draw bandwidth-hungry high-MPKI workloads, odd
// slots latency-sensitive low-MPKI ones, modeling a consolidated server
// where batch jobs and foreground services share the machine.
func RackMixWorkloads(idx, cores int) []Workload { return trace.RackMix(idx, cores) }

// Run executes one experiment: the system running the same workload on
// every active core (the paper's rate mode). It is a thin wrapper over
// Runner.Run — one-shot callers get the same warm-reuse path as suites,
// bit-identical to a cold start by construction.
func Run(cfg Config, w Workload, rc RunConfig) (Result, error) {
	return NewRunner(WithRunConfig(rc)).Run(context.Background(), cfg, w)
}

// RunMix executes one experiment with per-core workloads. Thin wrapper
// over Runner.RunMix.
func RunMix(cfg Config, workloads []Workload, rc RunConfig) (Result, error) {
	return NewRunner(WithRunConfig(rc)).RunMix(context.Background(), cfg, workloads)
}

// RunRack executes one rack-scale experiment (see Runner.RunRack):
// workloads[h] feeds host h, one entry per active core.
func RunRack(cfg RackConfig, workloads [][]Workload, rc RunConfig) (RackResult, error) {
	return NewRunner(WithRunConfig(rc)).RunRack(context.Background(), cfg, workloads)
}

// SuiteJob names one simulation point for RunSuite or a Plan: a
// single-system run of Config with Workloads[i] on core i (or, in the
// paper's rate mode, Workload on every active core), or — when Rack is
// non-nil — a whole rack topology fed by HostWorkloads. Rack jobs report
// through the same []Result slot as single-host jobs via
// RackResult.Summary (per-core IPCs concatenated across hosts, traffic
// summed); callers needing per-device detail run Runner.RunRack directly.
type SuiteJob struct {
	Config   Config
	Workload Workload
	// Workloads, when non-empty, assigns core i Workloads[i] (one entry
	// per active core) in place of the rate-mode Workload.
	Workloads []Workload

	// Rack, when non-nil, makes this a rack job; Config and the workloads
	// are ignored in favor of the topology and HostWorkloads.
	Rack *RackConfig
	// HostWorkloads assigns rack workloads: HostWorkloads[h] feeds host h,
	// one entry per active core.
	HostWorkloads [][]Workload
}

// perCore returns a single-system job's per-core workload assignment.
func (j SuiteJob) perCore() []Workload {
	if len(j.Workloads) > 0 {
		return j.Workloads
	}
	n := j.Config.ActiveCores
	if n == 0 {
		n = j.Config.Cores
	}
	wl := make([]Workload, max(n, 0))
	for i := range wl {
		wl[i] = j.Workload
	}
	return wl
}

// Key fingerprints the simulation j runs under rc: jobs with equal keys
// are the same simulation bit for bit, so a Plan runs them once and
// coaxial-serve shares one in-flight execution between them. The key
// covers every field of the config or rack topology, the per-core (or
// per-host) workloads and rc, except three things no simulated quantity
// reads: config and rack names (each consumer stamps the name it asked
// for back onto its copy of the Result), ActiveCores 0 versus Cores (both
// mean every core) and the progress observer.
func (j SuiteJob) Key(rc RunConfig) string {
	rc.OnProgress = nil
	if j.Rack == nil {
		return fmt.Sprintf("single|%+v|%+v|%+v", anonymous(j.Config), j.perCore(), rc)
	}
	rk := *j.Rack
	rk.Name, rk.Hosts = "", make([]Config, len(j.Rack.Hosts))
	for h, c := range j.Rack.Hosts {
		rk.Hosts[h] = anonymous(c)
	}
	return fmt.Sprintf("rack|%+v|%+v|%+v", rk, j.HostWorkloads, rc)
}

// anonymous strips what Key ignores from a config.
func anonymous(c Config) Config {
	c.Name = ""
	if c.ActiveCores == 0 {
		c.ActiveCores = c.Cores
	}
	return c
}

// RunSuite executes jobs across rc.Workers workers (GOMAXPROCS when zero),
// preserving order. Errors are returned per job. It is a thin wrapper over
// Runner.RunSuite (which additionally supports cancellation and aggregates
// errors with errors.Join).
func RunSuite(jobs []SuiteJob, rc RunConfig) ([]Result, []error) {
	return NewRunner(WithRunConfig(rc)).runSuite(context.Background(), jobs)
}

// Speedup returns the normalized-IPC improvement of res over base.
func Speedup(res, base Result) float64 {
	if base.IPC <= 0 {
		return 0
	}
	return res.IPC / base.IPC
}

// PerCoreSpeedupGeomean returns the geometric mean of per-core IPC ratios
// (the mixed-workload speedup metric of Fig. 6).
func PerCoreSpeedupGeomean(res, base Result) float64 {
	n := len(res.PerCoreIPC)
	if n == 0 || n != len(base.PerCoreIPC) {
		return 0
	}
	prodLog := 0.0
	for i := 0; i < n; i++ {
		if base.PerCoreIPC[i] <= 0 || res.PerCoreIPC[i] <= 0 {
			return 0
		}
		prodLog += math.Log(res.PerCoreIPC[i] / base.PerCoreIPC[i])
	}
	return math.Exp(prodLog / float64(n))
}

// DRAMEnergy re-exports the counter-based DRAM energy integration.
type DRAMEnergy = power.DRAMEnergy

// DRAMEnergyOf integrates DRAM energy over a result's measured window from
// its activity counters (first-principles complement to the Table V
// utilization fit).
func DRAMEnergyOf(r Result) DRAMEnergy {
	// One sub-channel = 19.2 GB/s and 32 banks; the peak encodes how many
	// sub-channels the system had.
	subs := int(r.PeakGBs/19.2 + 0.5)
	if subs < 1 {
		subs = 1
	}
	return power.IntegrateDRAM(r.DRAM, r.Cycles, subs*32)
}

// SeedStats aggregates one experiment across several seeds.
type SeedStats struct {
	// MeanIPC and StdIPC summarize the per-seed mean-IPC distribution.
	MeanIPC float64
	StdIPC  float64
	// Results holds the per-seed measurements (seed = 1..n).
	Results []Result
}

// RunSeeds repeats one experiment across n seeds and reports the IPC
// distribution, quantifying run-to-run variance (EXPERIMENTS.md note 5).
func RunSeeds(cfg Config, w Workload, rc RunConfig, n int) (SeedStats, error) {
	if n < 1 {
		n = 1
	}
	var (
		agg stats.Welford
		out SeedStats
	)
	for seed := uint64(1); seed <= uint64(n); seed++ {
		rc.Seed = seed
		res, err := Run(cfg, w, rc)
		if err != nil {
			return out, err
		}
		agg.Add(res.IPC)
		out.Results = append(out.Results, res)
	}
	out.MeanIPC = agg.Mean()
	out.StdIPC = agg.Std()
	return out, nil
}
