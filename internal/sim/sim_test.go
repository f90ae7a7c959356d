package sim

import (
	"math"
	"testing"

	"coaxial/internal/calm"
	"coaxial/internal/trace"
)

// quickRC returns fast experiment windows for integration tests.
func quickRC() RunConfig {
	return RunConfig{WarmupInstr: 8_000, MeasureInstr: 40_000, Seed: 1}
}

func mustWorkload(t *testing.T, name string) trace.Workload {
	t.Helper()
	w, err := trace.WorkloadByName(name)
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func TestConfigValidation(t *testing.T) {
	bad := Baseline()
	bad.Cores = 0
	if _, err := NewSystem(bad, nil, 1); err == nil {
		t.Error("zero cores accepted")
	}
	bad = Baseline()
	bad.Channels = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero channels accepted")
	}
	bad = Baseline()
	bad.ActiveCores = 99
	if err := bad.Validate(); err == nil {
		t.Error("active cores beyond cores accepted")
	}
	bad = Baseline()
	bad.LLCSliceBytes = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero LLC accepted")
	}
	bad = CoaxialAsym()
	bad.CXL.DDRChannels = 0
	if err := bad.Validate(); err == nil {
		t.Error("CXL device without DDR accepted")
	}
	for _, tc := range []struct {
		name string
		mut  func(*Config)
	}{
		{"zero ingress depth", func(c *Config) { c.CXL.IngressDepth = 0 }},
		{"negative ingress depth", func(c *Config) { c.CXL.IngressDepth = -1 }},
		{"zero RX goodput", func(c *Config) { c.CXL.Link.RXGoodputGBs = 0 }},
		{"negative TX goodput", func(c *Config) { c.CXL.Link.TXGoodputGBs = -13 }},
		{"NaN RX goodput", func(c *Config) { c.CXL.Link.RXGoodputGBs = math.NaN() }},
		{"negative port latency", func(c *Config) { c.CXL.Link.PortNS = -1 }},
		{"NaN port latency", func(c *Config) { c.CXL.Link.PortNS = math.NaN() }},
		{"zero request header", func(c *Config) { c.CXL.Link.ReqHeaderBytes = 0 }},
	} {
		bad = Coaxial4x()
		tc.mut(&bad)
		if err := bad.Validate(); err == nil {
			t.Errorf("%s accepted", tc.name)
		}
	}
	// The same link fields are ignored on direct-DDR configs, and a zero
	// port latency (an ideal interface) is in the envelope.
	ok := Baseline()
	ok.CXL.IngressDepth = 0
	ok.CXL.Link.RXGoodputGBs = 0
	if err := ok.Validate(); err != nil {
		t.Errorf("direct-DDR config rejected for unused CXL fields: %v", err)
	}
	if err := Coaxial4x().WithCXLPortNS(0).Validate(); err != nil {
		t.Errorf("zero port latency rejected: %v", err)
	}
}

func TestWorkloadCountMismatch(t *testing.T) {
	if _, err := NewSystem(Baseline(), []trace.Workload{}, 1); err == nil {
		t.Error("workload/core mismatch accepted")
	}
}

func TestZeroMeasureRejected(t *testing.T) {
	if _, err := Run(Baseline(), trace.Workload{}, RunConfig{}); err == nil {
		t.Error("zero measure window accepted")
	}
}

func TestDeterminism(t *testing.T) {
	w := mustWorkload(t, "kmeans")
	rc := RunConfig{WarmupInstr: 4_000, MeasureInstr: 20_000, Seed: 42}
	a, err := Run(Coaxial4x(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Run(Coaxial4x(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC != b.IPC || a.Cycles != b.Cycles || a.DRAM != b.DRAM || a.CALM != b.CALM {
		t.Errorf("same seed diverged: IPC %v vs %v, cycles %v vs %v", a.IPC, b.IPC, a.Cycles, b.Cycles)
	}
	c, err := Run(Coaxial4x(), w, RunConfig{WarmupInstr: 4_000, MeasureInstr: 20_000, Seed: 43})
	if err != nil {
		t.Fatal(err)
	}
	if a.IPC == c.IPC && a.Cycles == c.Cycles {
		t.Error("different seeds produced identical runs")
	}
}

func TestBreakdownConsistency(t *testing.T) {
	w := mustWorkload(t, "PageRank")
	base, err := Run(Baseline(), w, quickRC())
	if err != nil {
		t.Fatal(err)
	}
	if base.CXLNS != 0 {
		t.Errorf("baseline reports CXL time %v", base.CXLNS)
	}
	for name, v := range map[string]float64{
		"onchip": base.OnChipNS, "queue": base.QueueNS, "dram": base.ServiceNS, "total": base.TotalNS,
	} {
		if v < 0 {
			t.Errorf("negative %s component: %v", name, v)
		}
	}
	if base.TotalNS < base.QueueNS || base.TotalNS < base.ServiceNS {
		t.Error("total below components")
	}
	// p50 <= p90 <= p99.
	if base.P50NS > base.P90NS || base.P90NS > base.P99NS {
		t.Errorf("percentile ordering: %v %v %v", base.P50NS, base.P90NS, base.P99NS)
	}
	// DRAM service should be in a DDR5-plausible band. Under load the
	// service component includes inter-command waits (FAW/bus) after the
	// first command issues, so the band is generous.
	if base.ServiceNS < 15 || base.ServiceNS > 120 {
		t.Errorf("DRAM service %v ns implausible", base.ServiceNS)
	}
}

func TestCALMHelpsCoaxial(t *testing.T) {
	// On a high-miss-ratio workload, CALM_70% must not hurt COAXIAL and
	// should reduce measured on-chip time versus serial access.
	w := mustWorkload(t, "Components")
	serial, err := Run(Coaxial4x().WithCALM(calm.Config{Kind: calm.Off}), w, quickRC())
	if err != nil {
		t.Fatal(err)
	}
	calmed, err := Run(Coaxial4x(), w, quickRC())
	if err != nil {
		t.Fatal(err)
	}
	if calmed.OnChipNS >= serial.OnChipNS {
		t.Errorf("CALM did not cut on-chip time: %.1f vs %.1f ns", calmed.OnChipNS, serial.OnChipNS)
	}
	if calmed.IPC < serial.IPC*0.98 {
		t.Errorf("CALM hurt COAXIAL: %.3f vs %.3f", calmed.IPC, serial.IPC)
	}
	if calmed.CALM.CALMed == 0 {
		t.Error("no accesses CALMed")
	}
}

func TestCALMFalsePositivesDiscarded(t *testing.T) {
	// MIS has a partially LLC-resident set: CALM produces false positives
	// whose memory responses must be discarded (never filled).
	w := mustWorkload(t, "MIS")
	res, err := Run(Coaxial4x(), w, quickRC())
	if err != nil {
		t.Fatal(err)
	}
	if res.CALM.FalsePos == 0 {
		t.Skip("no false positives materialized")
	}
	if res.FPDiscarded == 0 {
		t.Error("false positives recorded but no responses discarded")
	}
}

func TestIdealCALMNoMispredictions(t *testing.T) {
	w := mustWorkload(t, "kmeans")
	res, err := Run(Coaxial4x().WithCALM(calm.Config{Kind: calm.Ideal}), w, quickRC())
	if err != nil {
		t.Fatal(err)
	}
	if res.CALM.FalsePos != 0 || res.CALM.FalseNeg != 0 {
		t.Errorf("ideal CALM mispredicted: %+v", res.CALM)
	}
}

func TestSingleCoreFavorsBaseline(t *testing.T) {
	// Fig. 11: at 8% utilization (1 core), latency-sensitive workloads
	// slow down under COAXIAL because there is no queuing to recover.
	w := mustWorkload(t, "omnetpp")
	rc := quickRC()
	base, err := Run(Baseline().WithActiveCores(1), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	coax, err := Run(Coaxial4x().WithActiveCores(1), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if coax.IPC >= base.IPC {
		t.Errorf("single-core COAXIAL should lose on omnetpp: %.3f vs %.3f", coax.IPC, base.IPC)
	}
}

func TestLatencyPremiumOrdering(t *testing.T) {
	// Lower CXL port latency must not reduce performance: 10ns >= 50ns >=
	// 70ns premium, measured on a bandwidth-bound workload.
	w := mustWorkload(t, "stream-triad")
	rc := quickRC()
	p10, err := Run(Coaxial4x().WithCXLPortNS(2.5), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	p50, err := Run(Coaxial4x(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	p70, err := Run(Coaxial4x().WithCXLPortNS(17.5), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if !(p10.IPC >= p50.IPC*0.99 && p50.IPC >= p70.IPC*0.99) {
		t.Errorf("premium ordering broken: 10ns %.3f, 50ns %.3f, 70ns %.3f", p10.IPC, p50.IPC, p70.IPC)
	}
	if p70.CXLNS <= p50.CXLNS {
		t.Errorf("70ns premium must raise CXL time: %.1f vs %.1f", p70.CXLNS, p50.CXLNS)
	}
}

func TestAsymBeatsSymOnReadHeavy(t *testing.T) {
	// COAXIAL-asym trades write for read bandwidth and adds a second DDR
	// channel per device; the paper reports it never loses.
	w := mustWorkload(t, "stream-triad")
	rc := quickRC()
	sym, err := Run(Coaxial4x(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	asym, err := Run(CoaxialAsym(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if asym.IPC < sym.IPC*0.98 {
		t.Errorf("asym should not lose on read-heavy streams: %.3f vs %.3f", asym.IPC, sym.IPC)
	}
}

func TestMoreChannelsMoreSpeedup(t *testing.T) {
	w := mustWorkload(t, "stream-add")
	rc := quickRC()
	c2, err := Run(Coaxial2x(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	c4, err := Run(Coaxial4x(), w, rc)
	if err != nil {
		t.Fatal(err)
	}
	if c4.IPC <= c2.IPC {
		t.Errorf("4x should beat 2x on bandwidth-bound stream: %.3f vs %.3f", c4.IPC, c2.IPC)
	}
}

func TestTrafficConservation(t *testing.T) {
	// DRAM reads == LLC demand misses + CALM false positives (each miss
	// fetches exactly one line; merges collapse duplicates), within the
	// slack of requests still in flight at the measurement edges.
	w := mustWorkload(t, "PageRank")
	res, err := Run(Coaxial4x(), w, quickRC())
	if err != nil {
		t.Fatal(err)
	}
	expected := float64(res.CALM.LLCMisses + res.CALM.FalsePos)
	got := float64(res.DRAM.RD)
	if got < expected*0.9 || got > expected*1.1 {
		t.Errorf("DRAM reads %v vs expected %v (llcMiss %d + FP %d)",
			got, expected, res.CALM.LLCMisses, res.CALM.FalsePos)
	}
}

func TestMixedWorkloadsRun(t *testing.T) {
	cfg := Baseline()
	wl := trace.Mix(0, cfg.Cores)
	res, err := RunMix(cfg, wl, quickRC())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCoreIPC) != cfg.Cores {
		t.Fatalf("per-core IPCs: %d", len(res.PerCoreIPC))
	}
	for i, ipc := range res.PerCoreIPC {
		if ipc <= 0 {
			t.Errorf("core %d IPC %v", i, ipc)
		}
	}
}

func TestActiveCoresSubset(t *testing.T) {
	w := mustWorkload(t, "pop2")
	cfg := Baseline().WithActiveCores(4)
	res, err := Run(cfg, w, quickRC())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PerCoreIPC) != 4 {
		t.Errorf("active-core IPCs: %d, want 4", len(res.PerCoreIPC))
	}
}

func TestUtilizationBounded(t *testing.T) {
	w := mustWorkload(t, "stream-copy")
	res, err := Run(Baseline(), w, quickRC())
	if err != nil {
		t.Fatal(err)
	}
	if res.Utilization <= 0 || res.Utilization > 1.0 {
		t.Errorf("utilization %v out of (0, 1]", res.Utilization)
	}
}

func TestConfigBuilders(t *testing.T) {
	c := Baseline()
	if c.Kind != DirectDDR || c.Channels != 1 || c.CALM.Kind != calm.Off {
		t.Errorf("baseline: %+v", c)
	}
	c4 := Coaxial4x()
	if c4.Kind != CXLAttached || c4.Channels != 4 || c4.LLCSliceBytes != 1<<20 {
		t.Errorf("coaxial-4x: %+v", c4)
	}
	c5 := Coaxial5x()
	if c5.Channels != 5 || c5.LLCSliceBytes != 2<<20 {
		t.Errorf("coaxial-5x: %+v", c5)
	}
	ca := CoaxialAsym()
	if ca.CXL.DDRChannels != 2 || ca.CXL.Link.RXGoodputGBs != 32 {
		t.Errorf("coaxial-asym: %+v", ca)
	}
	named := c4.WithActiveCores(4)
	if named.ActiveCores != 4 || named.Name == c4.Name {
		t.Errorf("WithActiveCores: %+v", named)
	}
	lat := c4.WithCXLPortNS(17.5)
	if lat.CXL.Link.PortNS != 17.5 {
		t.Errorf("WithCXLPortNS: %+v", lat.CXL.Link)
	}
}

func TestPeakGBsByConfig(t *testing.T) {
	cases := map[string]struct {
		cfg  Config
		want float64
	}{
		"baseline": {Baseline(), 38.4},
		"2x":       {Coaxial2x(), 76.8},
		"4x":       {Coaxial4x(), 153.6},
		"asym":     {CoaxialAsym(), 307.2},
	}
	for name, c := range cases {
		s, err := NewSystem(c.cfg, repeat(mustWorkloadB(t), c.cfg.active()), 1)
		if err != nil {
			t.Fatal(err)
		}
		if got := s.peakGBs(); got != c.want {
			t.Errorf("%s peak = %v, want %v", name, got, c.want)
		}
	}
}

func mustWorkloadB(t *testing.T) trace.Workload {
	w, err := trace.WorkloadByName("pop2")
	if err != nil {
		t.Fatal(err)
	}
	return w
}

func repeat(w trace.Workload, n int) []trace.Workload {
	out := make([]trace.Workload, n)
	for i := range out {
		out[i] = w
	}
	return out
}
