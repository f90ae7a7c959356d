package main

import (
	"context"
	"fmt"
	"io"
	"time"

	"coaxial"
	"coaxial/internal/rack"
	"coaxial/internal/sim"
)

// Windows of the simulator workloads, per core: functional warmup, timed
// warmup, measure. They are the windows of the repository's loaded and
// rack window micro-benchmarks (bench_test.go).
const (
	simFunctional = 100_000
	simWarmup     = 5_000
	simMeasure    = 60_000
)

// setupReps is how many times a run sets up from scratch; setup_s is
// the median.
const setupReps = 3

// loadedMixes is the loaded-mix panel: Fig. 6 mixes whose 12-core
// Coaxial4x windows cost about the same host time (330 to 430 ms on a
// 2-CPU host), so the pooled window-time distribution has one mode and
// every run covers the same work whatever its seed. Mix 3 is the mix of
// BenchmarkRunWindowLoaded.
var loadedMixes = []int{3, 4, 8, 9}

// simPoint is one simulated point of a workload's panel.
type simPoint struct {
	label string
	// run simulates the point through r and returns its outcome; a failed
	// run still returns whatever partial result it produced.
	run func(ctx context.Context, r *coaxial.Runner) (outcome, error)
	// capture runs the point's untimed warmup directly through
	// sim.CaptureWarm (per host for racks), timing each call.
	capture func(rc coaxial.RunConfig) ([]interval, error)
}

// outcome is one simulated point's result and digest.
type outcome struct {
	digest string
	res    coaxial.Result
	rack   *coaxial.RackResult
}

func (o outcome) count(c *simCounts) {
	if o.rack != nil {
		c.addRack(*o.rack)
		return
	}
	c.add(o.res)
}

// loadedPanel is the loaded-mix workload: all 12 Coaxial4x cores running
// a Fig. 6 mix.
func loadedPanel() []simPoint {
	var pts []simPoint
	for _, m := range loadedMixes {
		cfg, wl := coaxial.Coaxial4x(), coaxial.MixWorkloads(m, 12)
		pts = append(pts, simPoint{
			label: fmt.Sprintf("coaxial-4x/mix%d", m),
			run: func(ctx context.Context, r *coaxial.Runner) (outcome, error) {
				res, err := r.RunMix(ctx, cfg, wl)
				d, derr := digest(res)
				if err == nil {
					err = derr
				}
				return outcome{digest: d, res: res}, err
			},
			capture: func(rc coaxial.RunConfig) ([]interval, error) {
				t0 := time.Now()
				_, _, err := sim.CaptureWarm(cfg, wl, rc)
				return []interval{{t0, time.Now()}}, err
			},
		})
	}
	return pts
}

// rackPanel is the rack-pooled workload: two CoaxialPooled hosts sharing
// their pool devices, running rack mixes 0 and 1.
func rackPanel() []simPoint {
	cfg := coaxial.TopologyCoaxialPooled(2).Rack
	wls := [][]coaxial.Workload{coaxial.RackMixWorkloads(0, 12), coaxial.RackMixWorkloads(1, 12)}
	return []simPoint{{
		label: "coaxial-pooled/2-hosts/rackmix0+1",
		run: func(ctx context.Context, r *coaxial.Runner) (outcome, error) {
			rr, err := r.RunRack(ctx, cfg, wls)
			d, derr := digest(rr)
			if err == nil {
				err = derr
			}
			return outcome{digest: d, res: rr.Summary(), rack: &rr}, err
		},
		capture: func(rc coaxial.RunConfig) ([]interval, error) {
			var ivs []interval
			for h := range cfg.Hosts {
				t0 := time.Now()
				hp := sim.HostParams{Index: h, AddrOffset: rack.HostAddrOffset(h)}
				if _, _, err := sim.CaptureWarmHost(cfg.Hosts[h], wls[h], rack.HostRunConfig(rc, cfg, h), hp); err != nil {
					return ivs, err
				}
				ivs = append(ivs, interval{t0, time.Now()})
			}
			return ivs, nil
		},
	}}
}

// phaseClock times a point's measure phase from the Runner's progress
// reports: the last warmup report marks the phase boundary and the last
// measure report its end. It is driven from the simulation goroutine.
type phaseClock struct {
	warmEnd, measureEnd time.Time
}

func (c *phaseClock) observe(p coaxial.Progress) {
	if p.Phase == "measure" {
		c.measureEnd = time.Now()
	} else {
		c.warmEnd = time.Now()
	}
}

// loopStats is what one timed loop measured.
type loopStats struct {
	points   int // simulated points executed
	retired  uint64
	elapsed  time.Duration
	hostNS   float64   // host time of the executed points
	jobs     []float64 // ms per point as its caller saw it
	windows  []float64 // ms per measure phase
	counts   simCounts
	rt0, rt1 runtimeSample
	// warm0 and warm1 are the Runner's warm-cache readings around the
	// loop (simulator workloads only).
	warm0, warm1 coaxial.WarmStats
}

func (l *loopStats) kips() float64 { return float64(l.retired) / 1e3 / l.elapsed.Seconds() }

// simRun drives one simulator workload through a Runner.
type simRun struct {
	rep     *report
	seed    uint64
	panel   []simPoint
	first   int // panel index the rotation starts at
	digests digestSet
	tr      *tracer
	out     io.Writer
}

func newSimRun(rep *report, seed uint64, panel []simPoint, out io.Writer) *simRun {
	return &simRun{rep: rep, seed: seed, panel: panel, first: int(seed % uint64(len(panel))),
		digests: digestSet{}, tr: newTracer(), out: out}
}

func (s *simRun) runner() *coaxial.Runner {
	return coaxial.NewRunner(coaxial.WithSeed(s.seed), coaxial.WithWindows(simFunctional, simWarmup, simMeasure))
}

// setup builds a Runner and warms it for every point of the panel,
// setupReps times; setup_s is the median time from construction to the
// last point's first result, which includes its warm capture. The last
// Runner is returned warm. Every result joins the digest set, so fresh
// Runners must reproduce each other.
func (s *simRun) setup(ctx context.Context) *coaxial.Runner {
	var r *coaxial.Runner
	var secs []float64
	for i := 0; i < setupReps; i++ {
		t0 := time.Now()
		r = s.runner()
		for k := range s.panel {
			p := s.panel[(s.first+k)%len(s.panel)]
			o, err := p.run(ctx, r)
			if err == nil {
				err = s.digests.check(p.label, o.digest)
			}
			s.rep.op(err)
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	s.rep.set("setup_s", median(secs))
	s.rep.note("setup_s", "median of %d: Runner construction to the panel's first results, warm captures included", setupReps)
	return r
}

// loop runs the panel round-robin on r until dur has passed, finishing
// the round it is in so that every point runs equally often; it runs at
// least one round.
func (s *simRun) loop(ctx context.Context, r *coaxial.Runner, dur time.Duration, traced bool) loopStats {
	clock := &phaseClock{}
	rt := r.With(coaxial.WithProgress(clock.observe))
	s.tr.setOn(traced)
	defer s.tr.setOn(false)
	var l loopStats
	l.warm0 = r.WarmStats()
	l.rt0 = readRuntime()
	start := time.Now()
	for k := 0; k == 0 || k%len(s.panel) != 0 || time.Since(start) < dur; k++ {
		p := s.panel[(s.first+k)%len(s.panel)]
		*clock = phaseClock{}
		t0 := time.Now()
		o, err := p.run(ctx, rt)
		t1 := time.Now()
		if err == nil {
			err = s.digests.check(p.label, o.digest)
		}
		s.rep.op(err)
		if err != nil {
			continue
		}
		id := fmt.Sprintf("w%d", s.rep.attempted)
		s.tr.add(id, "coaxial.run", t0, t1)
		s.tr.add(id, "sim.measure", clock.warmEnd, clock.measureEnd)
		l.points++
		l.retired += o.res.Retired
		l.hostNS += float64(t1.Sub(t0).Nanoseconds())
		l.jobs = append(l.jobs, ms(t1.Sub(t0)))
		l.windows = append(l.windows, ms(clock.measureEnd.Sub(clock.warmEnd)))
		o.count(&l.counts)
	}
	l.elapsed = time.Since(start)
	l.rt1 = readRuntime()
	l.warm1 = r.WarmStats()
	return l
}

// gate runs the validated window of the rotation's first point: zero
// harness violations and a result bit-identical to the unvalidated runs.
func (s *simRun) gate(ctx context.Context, r *coaxial.Runner) {
	p := s.panel[s.first]
	o, err := p.run(ctx, r.With(coaxial.WithValidation()))
	s.rep.op(checkValidated(s.digests, p.label, o.digest, err))
	for _, p := range s.panel {
		fmt.Fprintf(s.out, "digest %s %s\n", p.label, s.digests[p.label])
	}
}

// runSim is a whole run of a simulator workload. Untraced, it reports the
// end-to-end metrics of one timed loop of dur. Traced, it splits dur into
// an untraced loop (the reference for the tracing overhead and the
// runtime counters) and a loop under the CPU profiler and spans, which
// gives the per-layer figures.
func runSim(ctx context.Context, cfg runConfig, panel []simPoint) (*report, error) {
	rep := newReport()
	s := newSimRun(rep, cfg.seed, panel, cfg.out)
	r := s.setup(ctx)
	if !cfg.trace {
		l := s.loop(ctx, r, cfg.dur, false)
		s.gate(ctx, r)
		reportLoop(rep, &l, "windows", cfg.nominal())
		rep.set("peak_rss_mb", peakRSSMB())
		return rep, nil
	}
	ref := s.loop(ctx, r, cfg.dur/2, false)
	stopProfile, err := startProfile()
	if err != nil {
		return nil, err
	}
	l := s.loop(ctx, r, cfg.dur/2, true)
	prof := stopProfile()
	s.gate(ctx, r)

	caps := map[string][]interval{}
	for _, p := range panel {
		ivs, err := p.capture(r.Config())
		rep.op(err)
		caps[p.label] = ivs
	}
	for _, n := range []string{"serve.submit_ms", "serve.queue_ms", "serve.engine_ms", "serve.deliver_ms", "serve.coalesced_ratio", "serve.rejected"} {
		rep.set(n, 0)
	}
	// Every point of the reference loop that needed no capture read its
	// warm state from the cache.
	captured := ref.warm1.Captures - ref.warm0.Captures
	rep.set("coaxial.warm_hit_ratio", ratio(float64(ref.points-captured), float64(ref.points)))
	rep.set("coaxial.warm_entries", float64(r.WarmStats().Entries))
	return rep, finishTrace(cfg, rep, s.tr, &ref, &l, caps, prof)
}

// interval is a host-time span.
type interval struct{ start, end time.Time }

// finishTrace completes a traced run from its untraced reference loop
// ref, its traced loop l, the direct warm captures, and the CPU profile:
// the capture spans and median, the runtime and simulated counts of ref,
// the tracing overhead line, and the per-layer fold and files.
func finishTrace(cfg runConfig, rep *report, tr *tracer, ref, l *loopStats, caps map[string][]interval, prof []byte) error {
	tr.setOn(true)
	var capMS []float64
	for id, ivs := range caps {
		for _, iv := range ivs {
			tr.add(id, "sim.capture", iv.start, iv.end)
			capMS = append(capMS, ms(iv.end.Sub(iv.start)))
		}
	}
	tr.setOn(false)
	rep.set("sim.capture_ms", median(capMS))
	mallocs, gc := runtimeDelta(ref.rt0, ref.rt1, ref.points)
	rep.set("runtime.mallocs_per_window", mallocs)
	rep.set("runtime.gc_share", gc)
	ref.counts.report(rep, ref.hostNS)
	fmt.Fprintf(cfg.out, "tracing overhead: traced loop %.4g kips, untraced %.4g kips (%+.1f%%)\n",
		l.kips(), ref.kips(), 100*(ref.kips()/l.kips()-1))
	return writeTrace(cfg, rep, tr, prof, float64(l.retired)/1e3)
}

// reportLoop sets the end-to-end metrics of a timed loop; what names the
// points it counts, and nominal is the sample count the tails are chosen
// for.
func reportLoop(rep *report, l *loopStats, what string, nominal int) {
	rep.set("kips", l.kips())
	rep.set("points_per_s", float64(len(l.jobs))/l.elapsed.Seconds())
	rep.note("points_per_s", "%d %s in %.1f s", len(l.jobs), what, l.elapsed.Seconds())
	rep.set("window_ms_p50", median(l.windows))
	rep.setTail("window_ms_tail", l.windows, nominal)
	rep.set("job_ms_p50", median(l.jobs))
	rep.setTail("job_ms_tail", l.jobs, nominal)
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
