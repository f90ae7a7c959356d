package coaxial

import (
	"errors"
	"fmt"
	"io"

	"coaxial/internal/capacity"
	"coaxial/internal/dram"
	"coaxial/internal/sim"
)

// This file hosts the extension studies beyond the paper's figures: the
// §IV-E capacity/cost analysis and ablations of COAXIAL's design choices
// (channel scaling, CALM threshold, MSHR budget) that DESIGN.md calls out.

// CapacityComparison re-exports the §IV-E capacity/cost row.
type CapacityComparison = capacity.Comparison

// CapacityStudy evaluates DIMM provisioning cost and deliverable bandwidth
// for the baseline (12 DDR channels) vs COAXIAL-4x (48 channels) across
// capacity targets (§IV-E).
func CapacityStudy() ([]CapacityComparison, error) {
	var out []CapacityComparison
	for _, target := range capacity.SweepTargets() {
		c, err := capacity.Compare(target)
		if err != nil {
			return nil, err
		}
		out = append(out, c)
	}
	return out, nil
}

// ReportCapacity prints the §IV-E study.
func ReportCapacity(w io.Writer, rows []CapacityComparison) {
	fmt.Fprintln(w, "§IV-E: iso-capacity DIMM provisioning, baseline (12ch) vs COAXIAL-4x (48ch)")
	fmt.Fprintf(w, "  %8s | %-46s | %-46s | %8s %6s\n", "capacity", "baseline plan", "coaxial plan", "cost", "BW")
	for _, r := range rows {
		fmt.Fprintf(w, "  %6dGB | %-46s | %-46s | %+7.0f%% %5.1fx\n",
			r.TargetGB, r.BaselineDesc, r.CoaxialDesc, -r.CostSaving*100, r.BWAdvantage)
	}
	fmt.Fprintln(w, "  (negative cost = COAXIAL cheaper; BW = deliverable DRAM bandwidth ratio)")
}

// ChannelScalingRow is one point of the channel-count ablation: COAXIAL
// with n CXL channels (iso-LLC with the 4x design) vs the DDR baseline.
type ChannelScalingRow struct {
	Channels int
	Speedup  float64
	UtilPct  float64
	QueueNS  float64
}

// AblationChannelScaling sweeps the CXL channel count at fixed LLC
// (1 MB/core, the 4x floorplan) on one workload, isolating how much of
// COAXIAL's gain is pure bandwidth.
func AblationChannelScaling(w Workload, counts []int, rc RunConfig) ([]ChannelScalingRow, error) {
	return planOne(rc, func(p *Plan) func() ([]ChannelScalingRow, error) { return p.channelScaling(w, counts) })
}

func (p *Plan) channelScaling(w Workload, counts []int) func() ([]ChannelScalingRow, error) {
	groups := make([][]SuiteJob, len(counts))
	for i, n := range counts {
		cfg := Coaxial4x()
		cfg.Channels = n
		cfg.Name = fmt.Sprintf("coaxial-%dch", n)
		groups[i] = rateJobs(w, Baseline(), cfg)
	}
	return rows(p, groups, func(i int, res []Result) ChannelScalingRow {
		return ChannelScalingRow{Channels: counts[i], Speedup: Speedup(res[1], res[0]),
			UtilPct: res[1].Utilization * 100, QueueNS: res[1].QueueNS}
	})
}

// ReportChannelScaling prints the channel ablation.
func ReportChannelScaling(w io.Writer, workload string, rows []ChannelScalingRow) {
	fmt.Fprintf(w, "Ablation: CXL channel count on %s (iso-LLC 1MB/core)\n", workload)
	fmt.Fprintf(w, "  %9s %9s %7s %9s\n", "channels", "speedup", "util%", "queue")
	for _, r := range rows {
		fmt.Fprintf(w, "  %9d %8.2fx %6.0f%% %7.0fns\n", r.Channels, r.Speedup, r.UtilPct, r.QueueNS)
	}
}

// CALMThresholdRow is one point of the CALM_R threshold ablation.
type CALMThresholdRow struct {
	R       float64
	Speedup float64 // over serial-access COAXIAL
	FPPct   float64
	FNPct   float64
}

// AblationCALMThreshold sweeps CALM_R's regulation threshold on COAXIAL-4x
// for one workload (extends Fig. 7's 50/60/70% points to a full curve).
func AblationCALMThreshold(w Workload, thresholds []float64, rc RunConfig) ([]CALMThresholdRow, error) {
	return planOne(rc, func(p *Plan) func() ([]CALMThresholdRow, error) { return p.calmThreshold(w, thresholds) })
}

func (p *Plan) calmThreshold(w Workload, thresholds []float64) func() ([]CALMThresholdRow, error) {
	groups := make([][]SuiteJob, len(thresholds))
	for i, r := range thresholds {
		groups[i] = rateJobs(w, Coaxial4x().WithCALM(CALMConfig{Kind: CALMOff}), Coaxial4x().WithCALM(CALMR(r)))
	}
	return rows(p, groups, func(i int, res []Result) CALMThresholdRow {
		return CALMThresholdRow{R: thresholds[i], Speedup: Speedup(res[1], res[0]),
			FPPct: res[1].CALM.FPRate() * 100, FNPct: res[1].CALM.FNRate() * 100}
	})
}

// ReportCALMThreshold prints the CALM_R threshold ablation.
func ReportCALMThreshold(w io.Writer, workload string, rows []CALMThresholdRow) {
	fmt.Fprintf(w, "Ablation: CALM_R threshold on %s (COAXIAL-4x, vs serial access)\n", workload)
	fmt.Fprintf(w, "  %6s %9s %7s %7s\n", "R", "speedup", "FP%", "FN%")
	for _, r := range rows {
		fmt.Fprintf(w, "  %5.0f%% %8.3fx %6.1f%% %6.1f%%\n", r.R*100, r.Speedup, r.FPPct, r.FNPct)
	}
}

// MSHRRow is one point of the per-core MSHR budget ablation.
type MSHRRow struct {
	MSHRs        int
	BaselineIPC  float64
	CoaxialIPC   float64
	CoaxSpeedup  float64
	BaseUtilPct  float64
	CoaxUtilPct  float64
	BaseQueueNS  float64
	CoaxQueueNS  float64
	BaseTotalLat float64
}

// AblationMSHRs sweeps the per-core miss-level-parallelism budget: COAXIAL
// needs MLP to exploit its bandwidth; the baseline saturates early.
func AblationMSHRs(w Workload, budgets []int, rc RunConfig) ([]MSHRRow, error) {
	return planOne(rc, func(p *Plan) func() ([]MSHRRow, error) { return p.mshrs(w, budgets) })
}

func (p *Plan) mshrs(w Workload, budgets []int) func() ([]MSHRRow, error) {
	groups := make([][]SuiteJob, len(budgets))
	for i, m := range budgets {
		b, c := Baseline(), Coaxial4x()
		b.MSHRs, c.MSHRs = m, m
		b.Name = fmt.Sprintf("ddr-baseline@%dmshr", m)
		c.Name = fmt.Sprintf("coaxial-4x@%dmshr", m)
		groups[i] = rateJobs(w, b, c)
	}
	return rows(p, groups, func(i int, res []Result) MSHRRow {
		rb, rc := res[0], res[1]
		return MSHRRow{
			MSHRs:        budgets[i],
			BaselineIPC:  rb.IPC,
			CoaxialIPC:   rc.IPC,
			CoaxSpeedup:  Speedup(rc, rb),
			BaseUtilPct:  rb.Utilization * 100,
			CoaxUtilPct:  rc.Utilization * 100,
			BaseQueueNS:  rb.QueueNS,
			CoaxQueueNS:  rc.QueueNS,
			BaseTotalLat: rb.TotalNS,
		}
	})
}

// ReportMSHRs prints the MSHR ablation.
func ReportMSHRs(w io.Writer, workload string, rows []MSHRRow) {
	fmt.Fprintf(w, "Ablation: per-core MSHR budget on %s\n", workload)
	fmt.Fprintf(w, "  %6s %10s %10s %9s\n", "MSHRs", "base IPC", "coax IPC", "speedup")
	for _, r := range rows {
		fmt.Fprintf(w, "  %6d %10.3f %10.3f %8.2fx\n", r.MSHRs, r.BaselineIPC, r.CoaxialIPC, r.CoaxSpeedup)
	}
}

// AblationSummary bundles the extension results for the report tool.
type AblationSummary struct {
	Capacity []CapacityComparison
	Channels []ChannelScalingRow
	CALM     []CALMThresholdRow
	MSHRs    []MSHRRow
	IsoPin   []IsoPinRow
	Drain    []WriteDrainRow
	BankPerm []BankPermutationRow
	Refresh  []RefreshRow
	Workload string
}

// RunAblations executes the full extension suite on one representative
// bandwidth-bound workload.
func RunAblations(w Workload, rc RunConfig) (AblationSummary, error) {
	return planOne(rc, func(p *Plan) func() (AblationSummary, error) { return p.Ablations(w) })
}

// Ablations declares the extension suite on p (see RunAblations). The
// capacity study and the refresh ablation simulate no system; they run in
// the reader.
func (p *Plan) Ablations(w Workload) func() (AblationSummary, error) {
	channels := p.channelScaling(w, []int{1, 2, 3, 4, 5})
	calm := p.calmThreshold(w, []float64{0.3, 0.5, 0.6, 0.7, 0.8, 0.9})
	mshrs := p.mshrs(w, []int{4, 8, 16, 32})
	isoPin := p.isoPin([]Workload{w})
	drain := p.writeDrain(w, [][2]int{{8, 2}, {36, 12}, {46, 40}})
	bankPerm := p.bankPermutation(w)
	return func() (AblationSummary, error) {
		s := AblationSummary{Workload: w.Params.Name}
		var errs [8]error
		s.Capacity, errs[0] = CapacityStudy()
		s.Channels, errs[1] = channels()
		s.CALM, errs[2] = calm()
		s.MSHRs, errs[3] = mshrs()
		s.IsoPin, errs[4] = isoPin()
		s.Drain, errs[5] = drain()
		s.BankPerm, errs[6] = bankPerm()
		s.Refresh, errs[7] = AblationSameBankRefresh([]float64{0.1, 0.3, 0.5, 0.7}, 6000, p.r.rc.Seed)
		return s, errors.Join(errs[:]...)
	}
}

// ReportAblations prints everything in RunAblations' summary.
func ReportAblations(w io.Writer, s AblationSummary) {
	ReportCapacity(w, s.Capacity)
	fmt.Fprintln(w)
	ReportChannelScaling(w, s.Workload, s.Channels)
	fmt.Fprintln(w)
	ReportCALMThreshold(w, s.Workload, s.CALM)
	fmt.Fprintln(w)
	ReportMSHRs(w, s.Workload, s.MSHRs)
	fmt.Fprintln(w)
	ReportIsoPin(w, s.IsoPin)
	fmt.Fprintln(w)
	ReportWriteDrain(w, s.Workload, s.Drain)
	fmt.Fprintln(w)
	ReportBankPermutation(w, s.Workload, s.BankPerm)
	fmt.Fprintln(w)
	ReportSameBankRefresh(w, s.Refresh)
}

// BankPermutationRow contrasts the DRAM bank-index permutation against a
// naive linear bank mapping.
type BankPermutationRow struct {
	Config      string
	PermutedIPC float64
	LinearIPC   float64
	Gain        float64 // permuted/linear
}

// AblationBankPermutation quantifies the bank XOR-permutation's value on
// the baseline and COAXIAL-4x: without it, per-core address-space bases
// and row-sweeping streams pile onto few banks, serializing on tRC.
func AblationBankPermutation(w Workload, rc RunConfig) ([]BankPermutationRow, error) {
	return planOne(rc, func(p *Plan) func() ([]BankPermutationRow, error) { return p.bankPermutation(w) })
}

func (p *Plan) bankPermutation(w Workload) func() ([]BankPermutationRow, error) {
	perms := []Config{Baseline(), Coaxial4x()}
	groups := make([][]SuiteJob, len(perms))
	for i, perm := range perms {
		lin := perm
		lin.DDR.DisableBankPermutation = true
		lin.Name = perm.Name + "+linearbank"
		groups[i] = rateJobs(w, perm, lin)
	}
	return rows(p, groups, func(i int, res []Result) BankPermutationRow {
		row := BankPermutationRow{Config: perms[i].Name, PermutedIPC: res[0].IPC, LinearIPC: res[1].IPC}
		if row.LinearIPC > 0 {
			row.Gain = row.PermutedIPC / row.LinearIPC
		}
		return row
	})
}

// ReportBankPermutation prints the mapping ablation.
func ReportBankPermutation(w io.Writer, workload string, rows []BankPermutationRow) {
	fmt.Fprintf(w, "Ablation: bank-index permutation on %s\n", workload)
	fmt.Fprintf(w, "  %-14s %10s %10s %8s\n", "config", "permuted", "linear", "gain")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-14s %10.3f %10.3f %7.2fx\n", r.Config, r.PermutedIPC, r.LinearIPC, r.Gain)
	}
}

// IsoPinRow compares the iso-area 4x design against the iso-pin 5x design
// (Table II: +17% die area buys a fifth channel and full-size LLC).
type IsoPinRow struct {
	Workload string
	Speedup4 float64 // COAXIAL-4x over baseline
	Speedup5 float64 // COAXIAL-5x over baseline
}

// AblationIsoPin evaluates whether COAXIAL-5x's extra channel and restored
// LLC justify its 17% area premium.
func AblationIsoPin(workloads []Workload, rc RunConfig) ([]IsoPinRow, error) {
	return planOne(rc, func(p *Plan) func() ([]IsoPinRow, error) { return p.isoPin(workloads) })
}

func (p *Plan) isoPin(workloads []Workload) func() ([]IsoPinRow, error) {
	return gridRows(p, []Config{Baseline(), Coaxial4x(), Coaxial5x()}, workloads, func(w Workload, res []Result) IsoPinRow {
		return IsoPinRow{Workload: w.Params.Name, Speedup4: Speedup(res[1], res[0]), Speedup5: Speedup(res[2], res[0])}
	})
}

// ReportIsoPin prints the iso-pin ablation.
func ReportIsoPin(w io.Writer, rows []IsoPinRow) {
	fmt.Fprintln(w, "Ablation: iso-area COAXIAL-4x vs iso-pin COAXIAL-5x (+17% die area)")
	fmt.Fprintf(w, "  %-15s %8s %8s\n", "workload", "4x", "5x")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-15s %7.2fx %7.2fx\n", r.Workload, r.Speedup4, r.Speedup5)
	}
}

// WriteDrainRow is one point of the write-drain watermark ablation.
type WriteDrainRow struct {
	High, Low int
	IPC       float64
	QueueNS   float64
}

// AblationWriteDrain sweeps the DDR controller's write-drain hysteresis on
// the baseline with a write-heavy workload: aggressive draining steals read
// slots, lazy draining risks write-queue backpressure.
func AblationWriteDrain(w Workload, marks [][2]int, rc RunConfig) ([]WriteDrainRow, error) {
	return planOne(rc, func(p *Plan) func() ([]WriteDrainRow, error) { return p.writeDrain(w, marks) })
}

func (p *Plan) writeDrain(w Workload, marks [][2]int) func() ([]WriteDrainRow, error) {
	groups := make([][]SuiteJob, len(marks))
	for i, m := range marks {
		cfg := Baseline()
		cfg.DDR.WriteHigh, cfg.DDR.WriteLow = m[0], m[1]
		cfg.Name = fmt.Sprintf("ddr-baseline@wd%d/%d", m[0], m[1])
		groups[i] = rateJobs(w, cfg)
	}
	return rows(p, groups, func(i int, res []Result) WriteDrainRow {
		return WriteDrainRow{High: marks[i][0], Low: marks[i][1], IPC: res[0].IPC, QueueNS: res[0].QueueNS}
	})
}

// ReportWriteDrain prints the write-drain ablation.
func ReportWriteDrain(w io.Writer, workload string, rows []WriteDrainRow) {
	fmt.Fprintf(w, "Ablation: write-drain watermarks on %s (baseline DDR controller)\n", workload)
	fmt.Fprintf(w, "  %10s %8s %9s\n", "high/low", "IPC", "queue")
	for _, r := range rows {
		fmt.Fprintf(w, "  %5d/%-4d %8.3f %7.0fns\n", r.High, r.Low, r.IPC, r.QueueNS)
	}
}

// RefreshRow contrasts all-bank REF against DDR5 same-bank REFsb on the
// Fig. 2a load-latency curve: fine-granularity refresh removes the
// rank-wide tRFC stall from the tail.
type RefreshRow struct {
	Util        float64
	AllBankP99  float64 // ns
	SameBankP99 float64 // ns
	AllBankMean float64
	SameBankean float64
}

// AblationSameBankRefresh sweeps load points under both refresh modes.
func AblationSameBankRefresh(utils []float64, requests int, seed uint64) ([]RefreshRow, error) {
	ab := dram.DefaultConfig()
	sb := dram.DefaultConfig()
	sb.SameBankRefresh = true
	var rows []RefreshRow
	for _, u := range utils {
		pa, err := sim.LoadLatency(ab, u, requests/10, requests, seed)
		if err != nil {
			return nil, err
		}
		ps, err := sim.LoadLatency(sb, u, requests/10, requests, seed)
		if err != nil {
			return nil, err
		}
		rows = append(rows, RefreshRow{
			Util:        u,
			AllBankP99:  pa.P99NS,
			SameBankP99: ps.P99NS,
			AllBankMean: pa.MeanNS,
			SameBankean: ps.MeanNS,
		})
	}
	return rows, nil
}

// ReportSameBankRefresh prints the refresh-granularity ablation.
func ReportSameBankRefresh(w io.Writer, rows []RefreshRow) {
	fmt.Fprintln(w, "Ablation: all-bank REF vs DDR5 same-bank REFsb (one channel, random reads)")
	fmt.Fprintf(w, "  %6s | %10s %10s | %10s %10s\n", "util", "REF mean", "REF p99", "REFsb mean", "REFsb p99")
	for _, r := range rows {
		fmt.Fprintf(w, "  %5.0f%% | %8.0fns %8.0fns | %8.0fns %8.0fns\n",
			r.Util*100, r.AllBankMean, r.AllBankP99, r.SameBankean, r.SameBankP99)
	}
}
