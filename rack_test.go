package coaxial_test

import (
	"context"
	"reflect"
	"testing"

	"coaxial"
	"coaxial/internal/rack"
	"coaxial/internal/sim"
)

func rackRC() coaxial.RunConfig {
	rc := coaxial.DefaultRunConfig()
	rc.FunctionalWarmupInstr = 50_000
	rc.WarmupInstr, rc.MeasureInstr = 5_000, 20_000
	return rc
}

// rateWorkloads assigns w to every core of every host of the rack.
func rateWorkloads(cfg coaxial.RackConfig, w coaxial.Workload) [][]coaxial.Workload {
	wls := make([][]coaxial.Workload, len(cfg.Hosts))
	for h, hc := range cfg.Hosts {
		n := hc.ActiveCores
		if n == 0 {
			n = hc.Cores
		}
		wls[h] = make([]coaxial.Workload, n)
		for i := range wls[h] {
			wls[h][i] = w
		}
	}
	return wls
}

// TestRackClockingEquivalence is the rack determinism pin: a 4-host
// pooled rack must be bit-identical across {event, cycle} clocking, and a
// 1-host rack must reproduce the equivalent single-System run (itself
// pinned by the golden tests) exactly.
func TestRackClockingEquivalence(t *testing.T) {
	if testing.Short() {
		t.Skip("rack equivalence matrix in -short mode")
	}
	preset := coaxial.TopologyCoaxialPooled(4)
	wls := make([][]coaxial.Workload, len(preset.Rack.Hosts))
	for h := range wls {
		wls[h] = coaxial.RackMixWorkloads(h, 12)
	}
	base := rackRC()

	var ref coaxial.RackResult
	for i, clocking := range []coaxial.Clocking{coaxial.EventDriven, coaxial.CycleByCycle} {
		rc := base
		rc.Clocking = clocking
		rr, err := coaxial.NewRunner(coaxial.WithRunConfig(rc)).RunRack(context.Background(), preset.Rack, wls)
		if err != nil {
			t.Fatalf("clocking %v: %v", clocking, err)
		}
		if i == 0 {
			ref = rr
			continue
		}
		if !reflect.DeepEqual(ref, rr) {
			t.Errorf("clocking %v diverges from reference:\nref: %+v\ngot: %+v", clocking, ref, rr)
		}
	}

	// 1-host identity, through the Runner's warm-cached path on both sides.
	one := coaxial.TopologyCoaxialPooled(1)
	wl := coaxial.RackMixWorkloads(0, 12)
	r := coaxial.NewRunner(coaxial.WithRunConfig(base))
	single, err := r.RunMix(context.Background(), coaxial.CoaxialPooled(), wl)
	if err != nil {
		t.Fatalf("single-system run: %v", err)
	}
	rr, err := r.RunRack(context.Background(), one.Rack, [][]coaxial.Workload{wl})
	if err != nil {
		t.Fatalf("1-host rack run: %v", err)
	}
	if !reflect.DeepEqual(single, rr.Hosts[0]) {
		t.Errorf("1-host rack diverges from single system:\nsingle: %+v\nrack:   %+v", single, rr.Hosts[0])
	}
}

// TestRackPooledQueueMonotonic is the metamorphic rack law: adding a host
// to a contended pooled device never reduces that device's total
// queueing — the extra host can only add traffic to the shared queues.
func TestRackPooledQueueMonotonic(t *testing.T) {
	if testing.Short() {
		t.Skip("metamorphic rack law in -short mode")
	}
	w, err := coaxial.WorkloadByName("stream-triad")
	if err != nil {
		t.Fatal(err)
	}
	rc := rackRC()
	run := func(hosts int) coaxial.RackResult {
		t.Helper()
		cfg := coaxial.TopologyCoaxialPooled(hosts).Rack
		rr, err := coaxial.RunRack(cfg, rateWorkloads(cfg, w), rc)
		if err != nil {
			t.Fatalf("%d-host rack: %v", hosts, err)
		}
		return rr
	}
	one := run(1)
	two := run(2)
	if len(one.Devices) != len(two.Devices) {
		t.Fatalf("device count changed with host count: %d vs %d", len(one.Devices), len(two.Devices))
	}
	for i := range one.Devices {
		if q1, q2 := one.Devices[i].TotalQueueCycles, two.Devices[i].TotalQueueCycles; q2 < q1 {
			t.Errorf("device %s: total queueing dropped when adding a host: %d -> %d",
				one.Devices[i].Name, q1, q2)
		}
	}
	if two.FairnessIndex <= 0 || two.FairnessIndex > 1 {
		t.Errorf("fairness index %v outside (0, 1]", two.FairnessIndex)
	}
}

// TestTopologyPresetAliases pins the deprecated stringly-typed lookup to
// the typed constructors, and the single-host presets to the classic
// Config presets they wrap.
func TestTopologyPresetAliases(t *testing.T) {
	constructors := map[string]func() coaxial.TopologyPreset{
		"ddr-baseline":   coaxial.TopologyDDRBaseline,
		"coaxial-2x":     coaxial.TopologyCoaxial2x,
		"coaxial-4x":     coaxial.TopologyCoaxial4x,
		"coaxial-5x":     coaxial.TopologyCoaxial5x,
		"coaxial-asym":   coaxial.TopologyCoaxialAsym,
		"coaxial-pooled": func() coaxial.TopologyPreset { return coaxial.TopologyCoaxialPooled(1) },
	}
	configs := map[string]func() coaxial.Config{
		"ddr-baseline":   coaxial.Baseline,
		"coaxial-2x":     coaxial.Coaxial2x,
		"coaxial-4x":     coaxial.Coaxial4x,
		"coaxial-5x":     coaxial.Coaxial5x,
		"coaxial-asym":   coaxial.CoaxialAsym,
		"coaxial-pooled": coaxial.CoaxialPooled,
	}
	names := coaxial.TopologyNames()
	if len(names) != len(constructors) {
		t.Errorf("TopologyNames lists %d presets, have %d constructors", len(names), len(constructors))
	}
	for _, name := range names {
		mk, ok := constructors[name]
		if !ok {
			t.Errorf("preset %q has no typed constructor", name)
			continue
		}
		byName, err := coaxial.TopologyPresetByName(name)
		if err != nil {
			t.Errorf("lookup %q: %v", name, err)
			continue
		}
		if want := mk(); !reflect.DeepEqual(byName, want) {
			t.Errorf("preset %q: alias and constructor disagree:\nalias:       %+v\nconstructor: %+v", name, byName, want)
		}
		cfg, ok := byName.Single()
		if !ok {
			t.Errorf("preset %q is not a 1-host topology", name)
			continue
		}
		if want := configs[name](); !reflect.DeepEqual(cfg, want) {
			t.Errorf("preset %q: Single() diverges from the classic Config preset", name)
		}
	}
	if _, err := coaxial.TopologyPresetByName("no-such-topology"); err == nil {
		t.Error("unknown preset name did not error")
	}
}

// TestTopologyWithHosts checks the host-scaling combinator: hosts
// replicate, pooled devices stay shared, and names encode the scale.
func TestTopologyWithHosts(t *testing.T) {
	p := coaxial.TopologyCoaxialPooled(4)
	if len(p.Rack.Hosts) != 4 {
		t.Fatalf("got %d hosts, want 4", len(p.Rack.Hosts))
	}
	if want := "coaxial-pooled@4h"; p.Name != want || p.Rack.Name != want {
		t.Errorf("names %q / %q, want %q", p.Name, p.Rack.Name, want)
	}
	if one := coaxial.TopologyCoaxialPooled(1); len(one.Rack.Pooled) != len(p.Rack.Pooled) {
		t.Errorf("device count scales with hosts: %d vs %d", len(one.Rack.Pooled), len(p.Rack.Pooled))
	}
	if _, ok := p.Single(); ok {
		t.Error("4-host topology claims to be single-host")
	}
	back := p.WithHosts(1)
	if back.Name != "coaxial-pooled" || len(back.Rack.Hosts) != 1 {
		t.Errorf("WithHosts(1) did not restore the base preset: %+v", back)
	}
}

// TestRackWarmKeysDistinct checks satellite 3: warm-cache keys must not
// alias across host counts or host positions of rack topologies, nor
// against the plain single-host key.
func TestRackWarmKeysDistinct(t *testing.T) {
	host := coaxial.CoaxialPooled()
	wl := coaxial.RackMixWorkloads(0, 12)
	rc := coaxial.DefaultRunConfig()
	seen := map[string]string{"single": sim.WarmKey(host, wl, rc)}
	for _, hosts := range []int{1, 2, 4} {
		cfg := coaxial.TopologyCoaxialPooled(hosts).Rack
		for h := range cfg.Hosts {
			key := sim.WarmKey(host, wl, rack.HostRunConfig(rc, cfg, h))
			label := cfg.Name + "/" + string(rune('0'+h))
			if prev, dup := seen[key]; dup {
				t.Errorf("warm key aliases %s and %s", prev, label)
			}
			seen[key] = label
		}
	}
}

// TestRunSuiteRackJobs runs a mixed suite — one single-host job, one rack
// job — and checks the rack row is the flattened summary.
func TestRunSuiteRackJobs(t *testing.T) {
	if testing.Short() {
		t.Skip("suite rack job in -short mode")
	}
	w, err := coaxial.WorkloadByName("stream-copy")
	if err != nil {
		t.Fatal(err)
	}
	rackCfg := coaxial.TopologyCoaxialPooled(2).Rack
	jobs := []coaxial.SuiteJob{
		{Config: coaxial.CoaxialPooled(), Workload: w},
		{Rack: &rackCfg, HostWorkloads: rateWorkloads(rackCfg, w)},
	}
	r := coaxial.NewRunner(coaxial.WithRunConfig(rackRC()))
	results, err := r.RunSuite(context.Background(), jobs)
	if err != nil {
		t.Fatal(err)
	}
	if results[1].Config != rackCfg.Name {
		t.Errorf("rack row config %q, want %q", results[1].Config, rackCfg.Name)
	}
	wantCores := 2 * len(results[0].PerCoreIPC)
	if len(results[1].PerCoreIPC) != wantCores {
		t.Errorf("rack row has %d per-core IPCs, want %d", len(results[1].PerCoreIPC), wantCores)
	}
	if results[1].IPC <= 0 || results[1].Retired == 0 {
		t.Errorf("rack summary row made no progress: %+v", results[1])
	}
}

// TestValidatedWindowsAtLaggingCoreSeeds pins the window-end clock sync
// under event clocking. These seeded windows end on a cycle where a core
// the event loop skipped has an MSHR freed by a fill in that cycle's
// backend phase. Re-ticking such a core at window end issued a deferred
// access one cycle early, into an event buffer nothing drained, and the
// lifecycle checker reported an MSHR accounting mismatch. The validated
// windows must be clean and equal to the unvalidated ones.
func TestValidatedWindowsAtLaggingCoreSeeds(t *testing.T) {
	ctx := context.Background()
	windows := coaxial.WithWindows(100_000, 5_000, 60_000)
	t.Run("rack-pooled/seed22", func(t *testing.T) {
		cfg := coaxial.TopologyCoaxialPooled(2).Rack
		wls := [][]coaxial.Workload{coaxial.RackMixWorkloads(0, 12), coaxial.RackMixWorkloads(1, 12)}
		r := coaxial.NewRunner(coaxial.WithSeed(22), windows)
		plain, err := r.RunRack(ctx, cfg, wls)
		if err != nil {
			t.Fatal(err)
		}
		validated, err := r.With(coaxial.WithValidation()).RunRack(ctx, cfg, wls)
		if err != nil {
			t.Fatalf("validated window: %v", err)
		}
		if !reflect.DeepEqual(plain, validated) {
			t.Error("validation changed the rack result")
		}
	})
	t.Run("loaded-mix8/seed406", func(t *testing.T) {
		cfg, wl := coaxial.Coaxial4x(), coaxial.MixWorkloads(8, 12)
		r := coaxial.NewRunner(coaxial.WithSeed(406), windows)
		plain, err := r.RunMix(ctx, cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		validated, err := r.With(coaxial.WithValidation()).RunMix(ctx, cfg, wl)
		if err != nil {
			t.Fatalf("validated window: %v", err)
		}
		if !reflect.DeepEqual(plain, validated) {
			t.Error("validation changed the result")
		}
	})
}
