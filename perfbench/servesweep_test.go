package main

import (
	"testing"

	"coaxial"
	"coaxial/internal/sim"
)

// reportSweepPoints lists the simulated points of coaxial-report -all
// -quick (cmd/coaxial-report over experiments.go), one entry per
// simulation run, as the config and per-core workloads each runs. Fig. 2a
// drives a lone DRAM channel and has no warm state; Figs. 2b, 5 and 9 and
// Tables IV and V reuse the main results, which run once.
func reportSweepPoints() (cfgs []coaxial.Config, wls [][]coaxial.Workload) {
	add := func(c coaxial.Config, wl []coaxial.Workload) {
		cfgs = append(cfgs, c)
		wls = append(wls, wl)
	}
	// every is Runner.Run: w on every active core.
	every := func(c coaxial.Config, w coaxial.Workload) {
		n := c.ActiveCores
		if n == 0 {
			n = c.Cores
		}
		wl := make([]coaxial.Workload, n)
		for i := range wl {
			wl[i] = w
		}
		add(c, wl)
	}
	ws := coaxial.RepresentativeWorkloads()
	for _, w := range ws { // MainResults
		every(coaxial.Baseline(), w)
		every(coaxial.Coaxial4x(), w)
	}
	for i := 0; i < 3; i++ { // Fig. 6, three mixes when quick
		wl := coaxial.MixWorkloads(i, coaxial.Baseline().Cores)
		add(coaxial.Baseline(), wl)
		add(coaxial.Coaxial4x(), wl)
	}
	vs := coaxial.Fig7Variants()
	for _, w := range ws { // Fig. 7: the serial baseline, then each variant on both systems
		every(coaxial.Baseline().WithCALM(vs[0].Cfg), w)
		for _, v := range vs {
			every(coaxial.Baseline().WithCALM(v.Cfg), w)
			every(coaxial.Coaxial4x().WithCALM(v.Cfg), w)
		}
	}
	for _, w := range ws { // Fig. 8
		for _, c := range []coaxial.Config{coaxial.Baseline(), coaxial.Coaxial2x(), coaxial.Coaxial4x(), coaxial.CoaxialAsym()} {
			every(c, w)
		}
	}
	for _, w := range ws { // Fig. 10
		for _, c := range []coaxial.Config{coaxial.Baseline(), coaxial.Coaxial4x(), coaxial.Coaxial4x().WithCXLPortNS(17.5), coaxial.Coaxial4x().WithCXLPortNS(2.5)} {
			every(c, w)
		}
	}
	for _, w := range ws { // Fig. 11
		for _, n := range coaxial.Fig11ActiveCores() {
			every(coaxial.Baseline().WithActiveCores(n), w)
			every(coaxial.Coaxial4x().WithActiveCores(n), w)
		}
	}
	return cfgs, wls
}

// TestFreshShareIsReportSweepShare derives serve-sweep's share of fresh
// points from the repository's own sweep: the share of its points that
// need a warm state no earlier point captured.
func TestFreshShareIsReportSweepShare(t *testing.T) {
	rc := coaxial.DefaultRunConfig() // as coaxial-report -quick sets it
	rc.Seed = 1
	rc.WarmupInstr, rc.MeasureInstr = 10_000, 60_000
	cfgs, wls := reportSweepPoints()
	keys := map[string]bool{}
	for i := range cfgs {
		keys[sim.WarmKey(cfgs[i], wls[i], rc)] = true
	}
	if len(cfgs) != 192 || len(keys) != 54 {
		t.Errorf("coaxial-report -all -quick: %d points, %d warm keys; perfbench/README.md cites 192 and 54", len(cfgs), len(keys))
	}
	if len(keys)*freshDen != len(cfgs)*freshNum {
		t.Errorf("fresh share %d/%d, the sweep's is %d/%d", freshNum, freshDen, len(keys), len(cfgs))
	}
}

func TestStudyScheduleIsFixed(t *testing.T) {
	fresh := 0
	for n := 1; n <= studyJobs; n++ {
		if isFresh(n) {
			fresh++
		}
	}
	if !isFresh(1) || fresh != ceilDiv(studyJobs*freshNum, freshDen) || fresh != 27 {
		t.Errorf("%d fresh of %d jobs (first fresh %v), want 27 from job 1", fresh, studyJobs, isFresh(1))
	}

	draw := func(runSeed uint64) []jobSpec {
		s := newJobSeq(runSeed, 3, 100)
		var out []jobSpec
		for {
			j, ok := s.next()
			if !ok {
				return out
			}
			out = append(out, j)
		}
	}
	a, b := draw(7), draw(7)
	if len(a) != studyJobs {
		t.Fatalf("study of %d jobs, want %d", len(a), studyJobs)
	}
	seeds := map[uint64]bool{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("job %d differs between draws with one seed: %v, %v", i+1, a[i], b[i])
		}
		if isFresh(i + 1) {
			if seeds[a[i].Seed] {
				t.Errorf("fresh job %d reuses seed %d", i+1, a[i].Seed)
			}
			seeds[a[i].Seed] = true
		} else if !seeds[a[i].Seed] {
			t.Errorf("repeat job %d at seed %d, which no earlier fresh point used", i+1, a[i].Seed)
		}
	}
}

// TestVariantGroupsShareWarmState checks that a fresh point's timing
// variants run from its warm state rather than capturing their own.
func TestVariantGroupsShareWarmState(t *testing.T) {
	for _, g := range variantGroups {
		var first string
		for _, p := range g {
			pts, err := jobSpec{p, "gcc", 9}.request(false).Points()
			if err != nil {
				t.Fatal(err)
			}
			k := sim.WarmKey(*pts[0].Single, pts[0].Workloads, pts[0].RC)
			if first == "" {
				first = k
			} else if k != first {
				t.Errorf("%s and %s do not share a warm key", g[0], p)
			}
		}
	}
}
