package coaxial

import (
	"coaxial/internal/area"
	"coaxial/internal/dram"
	"coaxial/internal/power"
	"coaxial/internal/sim"
	"coaxial/internal/stats"
	"coaxial/internal/trace"
)

// This file hosts the experiment drivers that regenerate each figure and
// table of the paper's evaluation (see DESIGN.md's experiment index).
// Each driver declares the simulation points it needs on a Plan and reads
// its typed rows back once the plan has run (plan.go); the package-level
// functions run one driver as its own plan. The rendering lives in
// report.go.

// PairRow is one workload's (baseline, variant) measurement pair.
type PairRow struct {
	Workload string
	Base     Result
	Coax     Result
	Speedup  float64
}

// MainResults runs the baseline and COAXIAL-4x across the given workloads
// (Fig. 5; its baseline side is also Fig. 2b and Fig. 9, and Table IV).
func MainResults(workloads []Workload, rc RunConfig) ([]PairRow, error) {
	return planOne(rc, func(p *Plan) func() ([]PairRow, error) { return p.MainResults(workloads) })
}

// MainResults declares the main sweep on p.
func (p *Plan) MainResults(workloads []Workload) func() ([]PairRow, error) {
	return p.comparePair(Baseline(), Coaxial4x(), workloads)
}

// ComparePair runs two configurations across workloads and pairs results.
func ComparePair(base, variant Config, workloads []Workload, rc RunConfig) ([]PairRow, error) {
	return planOne(rc, func(p *Plan) func() ([]PairRow, error) { return p.comparePair(base, variant, workloads) })
}

func (p *Plan) comparePair(base, variant Config, workloads []Workload) func() ([]PairRow, error) {
	return gridRows(p, []Config{base, variant}, workloads, func(w Workload, res []Result) PairRow {
		return PairRow{Workload: w.Params.Name, Base: res[0], Coax: res[1], Speedup: Speedup(res[1], res[0])}
	})
}

// MeanSpeedup returns the arithmetic mean speedup over rows (the paper's
// headline aggregation).
func MeanSpeedup(rows []PairRow) float64 {
	sp := make([]float64, len(rows))
	for i, r := range rows {
		sp[i] = r.Speedup
	}
	return stats.Mean(sp)
}

// GeomeanSpeedup returns the geometric mean speedup over rows.
func GeomeanSpeedup(rows []PairRow) float64 {
	sp := make([]float64, len(rows))
	for i, r := range rows {
		sp[i] = r.Speedup
	}
	return stats.Geomean(sp)
}

// LoadLatencyPoint re-exports the Fig. 2a sweep point.
type LoadLatencyPoint = sim.LoadLatencyPoint

// Fig2aLoadLatency sweeps a single DDR5-4800 channel's load-latency curve.
func Fig2aLoadLatency(utils []float64, warmup, requests int, seed uint64) ([]LoadLatencyPoint, error) {
	return sim.LoadLatencySweep(dram.DefaultConfig(), utils, warmup, requests, seed)
}

// MixRow is one Fig. 6 workload-mix measurement.
type MixRow struct {
	Mix      int
	Names    []string
	Base     Result
	Coax     Result
	Speedup  float64 // geometric mean of per-core IPC ratios
	MeanIPCx float64 // plain mean-IPC ratio, for reference
}

// Fig6Mixes evaluates n random 12-workload mixes on baseline vs
// COAXIAL-4x.
func Fig6Mixes(n int, rc RunConfig) ([]MixRow, error) {
	return planOne(rc, func(p *Plan) func() ([]MixRow, error) { return p.Fig6Mixes(n) })
}

// Fig6Mixes declares the Fig. 6 mixes on p.
func (p *Plan) Fig6Mixes(n int) func() ([]MixRow, error) {
	base, coax := Baseline(), Coaxial4x()
	groups := make([][]SuiteJob, n)
	for i := range groups {
		wl := MixWorkloads(i, base.Cores)
		groups[i] = []SuiteJob{{Config: base, Workloads: wl}, {Config: coax, Workloads: wl}}
	}
	return rows(p, groups, func(i int, res []Result) MixRow {
		wl := groups[i][0].Workloads
		names := make([]string, len(wl))
		for j, w := range wl {
			names[j] = w.Params.Name
		}
		return MixRow{Mix: i, Names: names, Base: res[0], Coax: res[1],
			Speedup: PerCoreSpeedupGeomean(res[1], res[0]), MeanIPCx: Speedup(res[1], res[0])}
	})
}

// CALMVariant names one Fig. 7 mechanism.
type CALMVariant struct {
	Label string
	Cfg   CALMConfig
}

// Fig7Variants returns the mechanisms of the Fig. 7 sensitivity study.
func Fig7Variants() []CALMVariant {
	return []CALMVariant{
		{Label: "serial", Cfg: CALMConfig{Kind: CALMOff}},
		{Label: "map-i", Cfg: CALMConfig{Kind: CALMMAPI}},
		{Label: "calm-50", Cfg: CALMR(0.50)},
		{Label: "calm-60", Cfg: CALMR(0.60)},
		{Label: "calm-70", Cfg: CALMR(0.70)},
		{Label: "ideal", Cfg: CALMConfig{Kind: CALMIdeal}},
	}
}

// Fig7Row is one workload's CALM sensitivity results: speedup of every
// (system, mechanism) pair over the serial baseline, plus decision tallies
// on the COAXIAL side (Fig. 7b).
type Fig7Row struct {
	Workload string
	// BaseSpeedup/CoaxSpeedup are keyed by Fig7Variants order.
	BaseSpeedup []float64
	CoaxSpeedup []float64
	// CoaxDecisions per variant (Fig. 7b).
	CoaxDecisions []CALMDecisions
}

// Fig7CALM runs the CALM mechanism study on the given workloads.
func Fig7CALM(workloads []Workload, rc RunConfig) ([]Fig7Row, error) {
	return planOne(rc, func(p *Plan) func() ([]Fig7Row, error) { return p.Fig7CALM(workloads) })
}

// Fig7CALM declares the CALM study on p. Every speedup is over the serial
// baseline, variant 0's baseline point.
func (p *Plan) Fig7CALM(workloads []Workload) func() ([]Fig7Row, error) {
	var cfgs []Config
	for _, v := range Fig7Variants() {
		cfgs = append(cfgs, Baseline().WithCALM(v.Cfg), Coaxial4x().WithCALM(v.Cfg))
	}
	return gridRows(p, cfgs, workloads, func(w Workload, res []Result) Fig7Row {
		row := Fig7Row{Workload: w.Params.Name}
		for i := 0; i < len(res); i += 2 {
			row.BaseSpeedup = append(row.BaseSpeedup, Speedup(res[i], res[0]))
			row.CoaxSpeedup = append(row.CoaxSpeedup, Speedup(res[i+1], res[0]))
			row.CoaxDecisions = append(row.CoaxDecisions, res[i+1].CALM)
		}
		return row
	})
}

// Fig8Row compares the alternative COAXIAL designs for one workload.
type Fig8Row struct {
	Workload string
	Speedup2 float64 // COAXIAL-2x over baseline
	Speedup4 float64 // COAXIAL-4x over baseline
	SpeedupA float64 // COAXIAL-asym over baseline
}

// Fig8Configs evaluates COAXIAL-2x/-4x/-asym against the baseline.
func Fig8Configs(workloads []Workload, rc RunConfig) ([]Fig8Row, error) {
	return planOne(rc, func(p *Plan) func() ([]Fig8Row, error) { return p.Fig8Configs(workloads) })
}

// Fig8Configs declares the design comparison on p.
func (p *Plan) Fig8Configs(workloads []Workload) func() ([]Fig8Row, error) {
	cfgs := []Config{Baseline(), Coaxial2x(), Coaxial4x(), CoaxialAsym()}
	return gridRows(p, cfgs, workloads, func(w Workload, res []Result) Fig8Row {
		return Fig8Row{Workload: w.Params.Name,
			Speedup2: Speedup(res[1], res[0]), Speedup4: Speedup(res[2], res[0]), SpeedupA: Speedup(res[3], res[0])}
	})
}

// Fig10Row is the CXL latency-premium sensitivity for one workload.
type Fig10Row struct {
	Workload  string
	Speedup50 float64 // 50 ns premium (default)
	Speedup70 float64 // 70 ns premium (pessimistic)
	Speedup10 float64 // 10 ns OMI-class premium (§VII)
}

// Fig10LatencySensitivity evaluates COAXIAL-4x at 50/70/10 ns premiums.
func Fig10LatencySensitivity(workloads []Workload, rc RunConfig) ([]Fig10Row, error) {
	return planOne(rc, func(p *Plan) func() ([]Fig10Row, error) { return p.Fig10LatencySensitivity(workloads) })
}

// Fig10LatencySensitivity declares the latency-premium study on p.
func (p *Plan) Fig10LatencySensitivity(workloads []Workload) func() ([]Fig10Row, error) {
	cfgs := []Config{
		Baseline(),
		Coaxial4x(),                     // 4 x 12.5 = 50 ns
		Coaxial4x().WithCXLPortNS(17.5), // 70 ns
		Coaxial4x().WithCXLPortNS(2.5),  // 10 ns
	}
	return gridRows(p, cfgs, workloads, func(w Workload, res []Result) Fig10Row {
		return Fig10Row{Workload: w.Params.Name,
			Speedup50: Speedup(res[1], res[0]), Speedup70: Speedup(res[2], res[0]), Speedup10: Speedup(res[3], res[0])}
	})
}

// Fig11Row is the core-utilization sensitivity for one workload: COAXIAL
// speedup with 1, 4, 8, and 12 active cores, each normalized to the
// baseline at the same active-core count.
type Fig11Row struct {
	Workload string
	Speedups [4]float64 // active cores: 1, 4, 8, 12
}

// Fig11ActiveCores returns the core counts evaluated.
func Fig11ActiveCores() [4]int { return [4]int{1, 4, 8, 12} }

// Fig11Utilization runs the utilization sensitivity study.
func Fig11Utilization(workloads []Workload, rc RunConfig) ([]Fig11Row, error) {
	return planOne(rc, func(p *Plan) func() ([]Fig11Row, error) { return p.Fig11Utilization(workloads) })
}

// Fig11Utilization declares the utilization study on p.
func (p *Plan) Fig11Utilization(workloads []Workload) func() ([]Fig11Row, error) {
	var cfgs []Config
	for _, n := range Fig11ActiveCores() {
		cfgs = append(cfgs, Baseline().WithActiveCores(n), Coaxial4x().WithActiveCores(n))
	}
	return gridRows(p, cfgs, workloads, func(w Workload, res []Result) Fig11Row {
		row := Fig11Row{Workload: w.Params.Name}
		for ci := range row.Speedups {
			row.Speedups[ci] = Speedup(res[2*ci+1], res[2*ci])
		}
		return row
	})
}

// TableVRow is one Table V column (a system's power ledger and efficiency
// metrics at measured CPI and utilization).
type TableVRow struct {
	System  string
	Ledger  power.Ledger
	Metrics power.Metrics
}

// TableVPower evaluates the energy model using suite-average CPI and
// per-channel utilization measured from rows (a MainResults run).
func TableVPower(rows []PairRow) (baseline, coaxial TableVRow) {
	var baseCPI, coaxCPI, baseUtil, coaxUtil []float64
	for _, r := range rows {
		baseCPI = append(baseCPI, r.Base.CPI)
		coaxCPI = append(coaxCPI, r.Coax.CPI)
		baseUtil = append(baseUtil, r.Base.Utilization)
		coaxUtil = append(coaxUtil, r.Coax.Utilization)
	}
	bSpec, cSpec := power.Baseline144(), power.Coaxial144()
	bl := power.Compute(bSpec, stats.Mean(baseUtil))
	cl := power.Compute(cSpec, stats.Mean(coaxUtil))
	bm := power.Evaluate(bl, stats.Mean(baseCPI))
	cm := power.Evaluate(cl, stats.Mean(coaxCPI))
	cm = power.Compare(cm, bm)
	bm = power.Compare(bm, bm)
	return TableVRow{System: bSpec.Name, Ledger: bl, Metrics: bm},
		TableVRow{System: cSpec.Name, Ledger: cl, Metrics: cm}
}

// AreaConfig re-exports the Table II derivation row.
type AreaConfig = area.ServerConfig

// TableIIConfigs returns the configuration space with derived relative
// bandwidth, area, and pin budgets.
func TableIIConfigs() []AreaConfig { return area.TableII() }

// Fig1BandwidthPerPin returns the interface bandwidth-per-pin series
// normalized to PCIe 1.0.
func Fig1BandwidthPerPin() map[string]float64 { return area.NormalizedToPCIe1() }

// RepresentativeWorkloads returns a small cross-suite subset used where a
// full 36-workload sweep is too slow (benches, quick reports): the paper's
// Fig. 7 uses a similar representative set.
func RepresentativeWorkloads() []Workload {
	names := []string{"lbm", "gcc", "Components", "stream-copy", "kmeans", "canneal"}
	out := make([]Workload, 0, len(names))
	for _, n := range names {
		w, err := trace.WorkloadByName(n)
		if err != nil {
			panic(err) // static list; cannot fail
		}
		out = append(out, w)
	}
	return out
}
