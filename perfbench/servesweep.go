package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"coaxial"
	"coaxial/internal/serve"
	"coaxial/internal/sim"
)

// The serve-sweep job space: single-host points with one active core.
var (
	serveWorkloads = []string{"canneal", "gcc", "stream-copy", "PageRank"}
	serveWindows   = serve.Windows{FunctionalWarmup: 100_000, Warmup: 5_000, Measure: 100_000}
	// servePresets are the presets of the set-up sweep's base points.
	servePresets = []string{"ddr-baseline", "coaxial-4x", "coaxial-asym"}
	// variantGroups are presets that share one warm key for a given
	// workload and seed: timing variants of one cache geometry (1 MB and
	// 2 MB of LLC per core). A fresh point runs its group's first preset;
	// later jobs may run any preset of the group from the same warm state,
	// as the timing variants of a sweep do.
	variantGroups = [][]string{{"coaxial-4x", "coaxial-asym"}, {"ddr-baseline", "coaxial-2x"}}
)

const (
	// freshNum of every freshDen jobs of a study are fresh points, evenly
	// spaced: a new seed, so a new warm key and a capture. The other jobs
	// repeat a point of the study, or run a timing variant of one, from
	// its captured warm state (or join it by single flight while it is in
	// flight). The share is the repository's own sweep: the 192 simulated
	// points of coaxial-report -all -quick have 54 distinct warm keys
	// (TestFreshShareIsReportSweepShare).
	freshNum, freshDen = 9, 32
	// studyJobs is the length of one study: the jobs one daemon serves
	// before the run closes it and starts the next on a new daemon. The
	// warm cache never evicts, so a study's captures (27 fresh points,
	// about 130 MB of warm state) bound the run's memory whatever its
	// length, and a faster daemon holds no more than a slower one.
	studyJobs = 96
	// directChecks is how many served points a run re-simulates directly
	// through a Runner for the correctness gate.
	directChecks = 3
)

// jobSpec is one point of the job sequence.
type jobSpec struct {
	Preset, Workload string
	Seed             uint64
}

func (j jobSpec) key() string { return fmt.Sprintf("%s/%s/seed%d", j.Preset, j.Workload, j.Seed) }

func (j jobSpec) request(validate bool) serve.JobRequest {
	w := serveWindows
	return serve.JobRequest{Kind: "run", Preset: j.Preset, Workload: j.Workload, ActiveCores: 1,
		Seed: j.Seed, Windows: &w, Validate: validate}
}

// isFresh reports whether job n (counted from 1) of a study is a fresh
// point: exactly freshNum of every freshDen jobs, evenly spaced, the
// first job included.
func isFresh(n int) bool {
	return ceilDiv(n*freshNum, freshDen) > ceilDiv((n-1)*freshNum, freshDen)
}

func ceilDiv(a, b int) int { return (a + b - 1) / b }

// jobSeq is one study's seeded job sequence, which the clients draw from
// in turn: the same run seed and study give the same sequence, whichever
// client takes each job.
type jobSeq struct {
	mu    sync.Mutex
	rng   *rand.Rand
	n     int       //lint:guardedby mu
	fresh int       //lint:guardedby mu
	pool  []jobSpec //lint:guardedby mu
	seed  uint64    //lint:guardedby mu
}

// newJobSeq starts study number study of a run; its fresh points take
// seeds from firstSeed on.
func newJobSeq(runSeed uint64, study int, firstSeed uint64) *jobSeq {
	return &jobSeq{rng: rand.New(rand.NewPCG(runSeed, uint64(study))), seed: firstSeed}
}

// next returns the study's next job, or false once it has handed out
// studyJobs jobs.
func (s *jobSeq) next() (jobSpec, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.n == studyJobs {
		return jobSpec{}, false
	}
	s.n++
	if !isFresh(s.n) {
		return s.pool[s.rng.IntN(len(s.pool))], true
	}
	g := variantGroups[s.fresh%len(variantGroups)]
	s.fresh++
	w := serveWorkloads[s.rng.IntN(len(serveWorkloads))]
	for _, p := range g {
		s.pool = append(s.pool, jobSpec{p, w, s.seed})
	}
	s.seed++
	return jobSpec{g[0], w, s.seed - 1}, true
}

// nextSeed is the first seed the study's fresh points did not use.
func (s *jobSeq) nextSeed() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.seed
}

// baseSpecs are the points of the set-up sweep.
func baseSpecs(seed uint64) []jobSpec {
	var out []jobSpec
	for _, p := range servePresets {
		for _, w := range serveWorkloads {
			out = append(out, jobSpec{p, w, seed})
		}
	}
	return out
}

// engineStats collects what the daemons' engines executed, across every
// daemon of a run.
type engineStats struct {
	mu      sync.Mutex
	calls   map[string][]interval //lint:guardedby mu
	windows []float64             //lint:guardedby mu
	retired uint64                //lint:guardedby mu
	hostNS  float64               //lint:guardedby mu
	counts  simCounts             //lint:guardedby mu
}

func newEngineStats() *engineStats { return &engineStats{calls: map[string][]interval{}} }

// reset starts a fresh measurement of executed points.
func (e *engineStats) reset() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.windows, e.retired, e.hostNS, e.counts = nil, 0, 0, simCounts{}
}

// lastCall returns the latest execution of key that ended by t: the one
// that served a job finishing at t, or that a coalesced job joined.
func (e *engineStats) lastCall(key string, t time.Time) (interval, bool) {
	e.mu.Lock()
	defer e.mu.Unlock()
	cs := e.calls[key]
	for i := len(cs) - 1; i >= 0; i-- {
		if !cs[i].end.After(t) {
			return cs[i], true
		}
	}
	return interval{}, false
}

// spanEngine wraps a daemon's Runner-backed engine, timing every point
// it executes (the serve.engine span) and its measure phase, and
// counting the simulated results into st.
type spanEngine struct {
	inner  serve.Engine
	runner *coaxial.Runner
	st     *engineStats
}

func newSpanEngine(st *engineStats) *spanEngine {
	r := coaxial.NewRunner()
	return &spanEngine{inner: serve.NewRunnerEngine(r), runner: r, st: st}
}

func pointKey(p serve.Point) string { return fmt.Sprintf("%s/seed%d", p.Label, p.RC.Seed) }

func (e *spanEngine) RunPoint(ctx context.Context, p serve.Point, onProgress func(coaxial.Progress)) (serve.PointOutcome, error) {
	var clock phaseClock
	observe := func(pr coaxial.Progress) {
		clock.observe(pr)
		if onProgress != nil {
			onProgress(pr)
		}
	}
	t0 := time.Now()
	out, err := e.inner.RunPoint(ctx, p, observe)
	t1 := time.Now()
	st := e.st
	st.mu.Lock()
	defer st.mu.Unlock()
	k := pointKey(p)
	st.calls[k] = append(st.calls[k], interval{t0, t1})
	if err == nil {
		st.windows = append(st.windows, ms(clock.measureEnd.Sub(clock.warmEnd)))
		st.retired += out.Result.Retired
		st.hostNS += float64(t1.Sub(t0).Nanoseconds())
		st.counts.add(out.Result)
	}
	return out, err
}

func (e *spanEngine) WarmStats() coaxial.WarmStats { return e.runner.WarmStats() }

// daemon is an in-process coaxial-serve behind a loopback HTTP server.
type daemon struct {
	srv    *serve.Server
	eng    *spanEngine
	http   *httptest.Server
	client *http.Client
}

func startDaemon(clients int, st *engineStats) (*daemon, error) {
	eng := newSpanEngine(st)
	srv := serve.New(serve.Options{Engine: eng})
	d := &daemon{srv: srv, eng: eng, http: httptest.NewServer(srv),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients}}}
	resp, err := d.client.Get(d.http.URL + "/healthz")
	if err != nil {
		d.close()
		return nil, fmt.Errorf("healthz: %w", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		d.close()
		return nil, fmt.Errorf("healthz: %s", resp.Status)
	}
	return d, nil
}

// close stops the HTTP server, then the daemon's workers, and waits for
// both.
func (d *daemon) close() {
	d.client.CloseIdleConnections()
	d.http.Close()
	d.srv.Close()
}

// jobTiming is one job's client-side timestamps.
type jobTiming struct {
	id                        string
	submit, accepted, settled time.Time
}

// errRejected marks a submission the daemon refused with 429.
var errRejected = errors.New("job refused: queue full (429)")

// submitAndWait posts a job, follows its stream to the terminal line and
// returns the final status.
func (d *daemon) submitAndWait(ctx context.Context, q serve.JobRequest) (serve.JobStatus, jobTiming, error) {
	var tm jobTiming
	body, err := json.Marshal(q)
	if err != nil {
		return serve.JobStatus{}, tm, err
	}
	tm.submit = time.Now()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.http.URL+"/v1/jobs", bytes.NewReader(body))
	if err != nil {
		return serve.JobStatus{}, tm, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return serve.JobStatus{}, tm, fmt.Errorf("submit: %w", err)
	}
	var ack struct {
		ID     string `json:"id"`
		Stream string `json:"stream_url"`
	}
	err = json.NewDecoder(resp.Body).Decode(&ack)
	resp.Body.Close()
	tm.accepted = time.Now()
	tm.id = ack.ID
	switch {
	case resp.StatusCode == http.StatusTooManyRequests:
		return serve.JobStatus{}, tm, errRejected
	case resp.StatusCode != http.StatusAccepted:
		return serve.JobStatus{}, tm, fmt.Errorf("submit: %s", resp.Status)
	case err != nil:
		return serve.JobStatus{}, tm, fmt.Errorf("submit: %w", err)
	}
	req, err = http.NewRequestWithContext(ctx, http.MethodGet, d.http.URL+ack.Stream, nil)
	if err != nil {
		return serve.JobStatus{}, tm, err
	}
	resp, err = d.client.Do(req)
	if err != nil {
		return serve.JobStatus{}, tm, fmt.Errorf("stream: %w", err)
	}
	defer resp.Body.Close()
	dec := json.NewDecoder(resp.Body)
	for {
		var ev serve.StreamEvent
		if err := dec.Decode(&ev); err != nil {
			return serve.JobStatus{}, tm, fmt.Errorf("stream %s: %w", ack.ID, err)
		}
		if ev.Type == "end" && ev.Job != nil {
			tm.settled = time.Now()
			// Drain the (empty) rest so the connection is reused.
			_, _ = io.Copy(io.Discard, resp.Body)
			return *ev.Job, tm, nil
		}
	}
}

// pointDigest checks a finished single-point job and digests its result.
func pointDigest(st serve.JobStatus) (string, error) {
	if st.State != "done" || st.Error != "" {
		return "", fmt.Errorf("job %s ended %s: %s", st.ID, st.State, st.Error)
	}
	if len(st.Results) != 1 || st.Results[0].Partial || st.Results[0].Error != "" {
		return "", fmt.Errorf("job %s: want one complete point result, got %d", st.ID, len(st.Results))
	}
	return digest(st.Results[0].Result)
}

// serveRun is one serve-sweep run's shared state.
type serveRun struct {
	cfg  runConfig
	rep  *report
	d    *daemon // the last set-up daemon, which serves the gate
	eng  *engineStats
	tr   *tracer
	base []jobSpec
	// studies counts the studies run so far and seed is the next fresh
	// seed; both carry over from one timed loop to the next.
	studies int
	seed    uint64

	mu       sync.Mutex
	digests  digestSet          //lint:guardedby mu
	served   map[string]jobSpec //lint:guardedby mu
	jobs     []float64          //lint:guardedby mu
	rejected int                //lint:guardedby mu
}

// serveLoop is what one timed loop measured, with the studies' /metrics
// counters summed over their daemons.
type serveLoop struct {
	loopStats
	studies int
	m       map[string]float64
}

// loop runs whole studies until dur has passed, at least one. A study
// starts a new daemon, runs the closed-loop clients over its job
// sequence, scrapes the daemon's /metrics, and closes it. Each client
// submits a job, follows its stream to the terminal line, checks the
// result, and only then submits the next.
func (s *serveRun) loop(ctx context.Context, clients int, dur time.Duration, traced bool) (serveLoop, error) {
	l := serveLoop{m: map[string]float64{}}
	s.eng.reset()
	s.mu.Lock()
	s.jobs = nil
	s.mu.Unlock()
	s.tr.setOn(traced)
	defer s.tr.setOn(false)
	l.rt0 = readRuntime()
	start := time.Now()
	for l.studies == 0 || time.Since(start) < dur {
		d, err := startDaemon(clients, s.eng)
		if err != nil {
			return l, err
		}
		seq := newJobSeq(s.cfg.seed, s.studies, s.seed)
		var wg sync.WaitGroup
		wg.Add(clients)
		for c := 0; c < clients; c++ {
			go s.client(ctx, d, seq, fmt.Sprintf("s%d/", s.studies), &wg)
		}
		wg.Wait()
		m, err := d.metrics(ctx)
		d.close()
		if err != nil {
			return l, err
		}
		for k, v := range m {
			l.m[k] += v
		}
		s.studies++
		s.seed = seq.nextSeed()
		l.studies++
	}
	l.elapsed = time.Since(start)
	l.rt1 = readRuntime()
	e := s.eng
	e.mu.Lock()
	l.windows, l.retired, l.hostNS, l.counts, l.points = e.windows, e.retired, e.hostNS, e.counts, e.counts.points
	e.mu.Unlock()
	s.mu.Lock()
	l.jobs = s.jobs
	s.mu.Unlock()
	return l, nil
}

// client runs jobs of seq on d until the study is over; span IDs are the
// daemon's job IDs under prefix.
func (s *serveRun) client(ctx context.Context, d *daemon, seq *jobSeq, prefix string, wg *sync.WaitGroup) {
	defer wg.Done()
	for {
		j, ok := seq.next()
		if !ok {
			return
		}
		st, tm, err := d.submitAndWait(ctx, j.request(false))
		var dg string
		if err == nil {
			dg, err = pointDigest(st)
		}
		s.mu.Lock()
		if err == nil {
			err = s.digests.check(j.key(), dg)
			s.served[j.key()] = j
			s.jobs = append(s.jobs, ms(tm.settled.Sub(tm.submit)))
		}
		if errors.Is(err, errRejected) {
			s.rejected++
		}
		s.rep.op(err)
		s.mu.Unlock()
		if err == nil {
			s.traceJob(prefix+tm.id, j, tm)
		}
	}
}

// traceJob records a finished job's spans under id: the submit round
// trip, the wait until the engine started its point, the engine
// execution, and the delivery of the terminal stream line.
func (s *serveRun) traceJob(id string, j jobSpec, tm jobTiming) {
	s.tr.add(id, "serve.submit", tm.submit, tm.accepted)
	pts, err := j.request(false).Points()
	if err != nil {
		return
	}
	call, ok := s.eng.lastCall(pointKey(pts[0]), tm.settled)
	if !ok {
		return
	}
	engStart := call.start
	if engStart.Before(tm.accepted) {
		engStart = tm.accepted // a coalesced job joins a running point
	}
	s.tr.add(id, "serve.queue", tm.accepted, engStart)
	s.tr.add(id, "serve.engine", call.start, call.end)
	s.tr.add(id, "serve.deliver", call.end, tm.settled)
}

// metrics scrapes the daemon's /metrics counters.
func (d *daemon) metrics(ctx context.Context) (map[string]float64, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, d.http.URL+"/metrics", nil)
	if err != nil {
		return nil, err
	}
	resp, err := d.client.Do(req)
	if err != nil {
		return nil, fmt.Errorf("metrics: %w", err)
	}
	defer resp.Body.Close()
	return parseMetrics(resp.Body)
}

// parseMetrics reads Prometheus text lines "name value".
func parseMetrics(r io.Reader) (map[string]float64, error) {
	out := map[string]float64{}
	sc := bufio.NewScanner(r)
	for sc.Scan() {
		f := strings.Fields(sc.Text())
		if len(f) != 2 || strings.HasPrefix(f[0], "#") {
			continue
		}
		v, err := strconv.ParseFloat(f[1], 64)
		if err != nil {
			return nil, fmt.Errorf("metrics line %q: %w", sc.Text(), err)
		}
		out[f[0]] = v
	}
	return out, sc.Err()
}

// runServe is a whole serve-sweep run; see runSim for the traced split.
func runServe(ctx context.Context, cfg runConfig) (*report, error) {
	rep := newReport()
	clients := runtime.GOMAXPROCS(0)
	base := baseSpecs(cfg.seed*1000 + 1)
	s := &serveRun{cfg: cfg, rep: rep, eng: newEngineStats(), tr: newTracer(), base: base, seed: base[0].Seed + 1,
		digests: digestSet{}, served: map[string]jobSpec{}}
	var secs []float64
	for i := 0; i < setupReps; i++ {
		if s.d != nil {
			s.d.close()
		}
		t0 := time.Now()
		var err error
		if s.d, err = startDaemon(clients, s.eng); err != nil {
			return nil, err
		}
		if err := s.warm(ctx); err != nil {
			s.d.close()
			return nil, err
		}
		secs = append(secs, time.Since(t0).Seconds())
	}
	defer s.d.close()
	rep.set("setup_s", median(secs))
	rep.note("setup_s", "median of %d: daemon start to a healthy /healthz and the base points warm", setupReps)
	fmt.Fprintf(cfg.out, "studies of %d jobs, %d of every %d a fresh point\n", studyJobs, freshNum, freshDen)

	if !cfg.trace {
		l, err := s.loop(ctx, clients, cfg.dur, false)
		if err != nil {
			return nil, err
		}
		s.gate(ctx)
		reportLoop(rep, &l.loopStats, "jobs", cfg.nominal())
		rep.note("points_per_s", "%d jobs in %d studies in %.1f s", len(l.jobs), l.studies, l.elapsed.Seconds())
		rep.set("peak_rss_mb", peakRSSMB())
		return rep, nil
	}
	ref, err := s.loop(ctx, clients, cfg.dur/2, false)
	if err != nil {
		return nil, err
	}
	stopProfile, err := startProfile()
	if err != nil {
		return nil, err
	}
	l, err := s.loop(ctx, clients, cfg.dur/2, true)
	prof := stopProfile()
	if err != nil {
		return nil, err
	}
	s.gate(ctx)

	caps := map[string][]interval{}
	for _, j := range base {
		pts, err := j.request(false).Points()
		if err != nil {
			return nil, err
		}
		p := pts[0]
		rc := p.RC
		rc.Seed += 1 << 32 // a seed no job uses: a true capture
		t0 := time.Now()
		_, _, err = sim.CaptureWarm(*p.Single, p.Workloads, rc)
		rep.op(err)
		caps[j.key()] = []interval{{t0, time.Now()}}
	}
	for _, n := range []string{"submit", "queue", "engine", "deliver"} {
		rep.set("serve."+n+"_ms", median(s.tr.durationsMS("serve."+n)))
	}
	started := ref.m["coaxial_serve_points_started_total"]
	coalesced := ref.m["coaxial_serve_points_coalesced_total"]
	captures := ref.m["coaxial_serve_warm_captures_total"]
	rep.set("serve.coalesced_ratio", ratio(coalesced, started+coalesced))
	s.mu.Lock()
	rep.set("serve.rejected", float64(s.rejected))
	s.mu.Unlock()
	rep.set("coaxial.warm_hit_ratio", ratio(started-captures, started))
	rep.set("coaxial.warm_entries", l.m["coaxial_serve_warm_entries"]/float64(l.studies))
	rep.note("coaxial.warm_entries", "mean per study at its end")
	return rep, finishTrace(cfg, rep, s.tr, &ref.loopStats, &l.loopStats, caps, prof)
}

// warm submits the base points as one sweep job, the daemon's first, and
// records their digests.
func (s *serveRun) warm(ctx context.Context) error {
	q := serve.JobRequest{Kind: "sweep", Presets: servePresets, Workloads: serveWorkloads,
		ActiveCores: 1, Seed: s.base[0].Seed, Windows: &serveWindows}
	st, _, err := s.d.submitAndWait(ctx, q)
	s.rep.op(err)
	if err != nil {
		return err
	}
	if st.State != "done" || len(st.Results) != len(s.base) {
		return fmt.Errorf("warm sweep %s ended %s with %d of %d points: %s", st.ID, st.State, len(st.Results), len(s.base), st.Error)
	}
	for i, pr := range st.Results {
		d, err := digest(pr.Result)
		if err == nil && (pr.Partial || pr.Error != "") {
			err = fmt.Errorf("warm sweep point %s: partial or failed: %s", pr.Label, pr.Error)
		}
		if err == nil {
			err = s.digests.check(s.base[i].key(), d)
		}
		s.rep.op(err)
		s.served[s.base[i].key()] = s.base[i]
	}
	return nil
}

// gate is serve-sweep's correctness gate, run outside the timed loops: a
// validated job must finish with no harness violation and equal the
// unvalidated result of its point, and a seeded sample of served points
// must equal a direct Runner.RunMix of the same point.
func (s *serveRun) gate(ctx context.Context) {
	j := s.base[s.cfg.seed%uint64(len(s.base))]
	st, _, err := s.d.submitAndWait(ctx, j.request(true))
	var d string
	if err == nil {
		d, err = pointDigest(st)
	}
	if err == nil {
		s.mu.Lock()
		err = checkValidated(s.digests, j.key(), d, nil)
		s.mu.Unlock()
	}
	s.rep.op(err)

	s.mu.Lock()
	keys := make([]string, 0, len(s.served))
	for k := range s.served {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	rng := rand.New(rand.NewPCG(s.cfg.seed, 0xd1ec7))
	var sample []jobSpec
	for i := 0; i < directChecks && len(keys) > 0; i++ {
		sample = append(sample, s.served[keys[rng.IntN(len(keys))]])
	}
	want := map[string]string{}
	for _, j := range sample {
		want[j.key()] = s.digests[j.key()]
	}
	s.mu.Unlock()
	for _, j := range sample {
		s.rep.op(directCheck(ctx, j, want[j.key()]))
		fmt.Fprintf(s.cfg.out, "digest %s %s (served = direct Runner.RunMix)\n", j.key(), want[j.key()])
	}
}

// directCheck simulates a served point directly through a fresh Runner
// and compares it with the served result.
func directCheck(ctx context.Context, j jobSpec, want string) error {
	pts, err := j.request(false).Points()
	if err != nil {
		return err
	}
	p := pts[0]
	res, err := coaxial.NewRunner(coaxial.WithRunConfig(p.RC)).RunMix(ctx, *p.Single, p.Workloads)
	if err != nil {
		return fmt.Errorf("%s: direct run: %w", j.key(), err)
	}
	d, err := digest(res)
	if err != nil {
		return err
	}
	if d != want {
		return fmt.Errorf("%s: served result digest %s differs from direct Runner.RunMix %s", j.key(), want, d)
	}
	return nil
}
