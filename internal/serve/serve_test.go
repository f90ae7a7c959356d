package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"coaxial"
)

// testWindows keeps real-engine tests fast: a short functional warmup and
// small timed windows (the golden corpus uses larger ones; determinism is
// window-independent).
func testWindows() *Windows {
	return &Windows{FunctionalWarmup: 20_000, Warmup: 1_000, Measure: 3_000}
}

// testRunConfig mirrors what wire.go builds for testWindows, for direct
// Runner comparison runs.
func testRunConfig() coaxial.RunConfig {
	rc := coaxial.DefaultRunConfig()
	w := testWindows()
	rc.FunctionalWarmupInstr = w.FunctionalWarmup
	rc.WarmupInstr = w.Warmup
	rc.MeasureInstr = w.Measure
	return rc
}

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	s := New(opts)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		_ = s.Close()
	})
	return s, ts
}

func postJob(t *testing.T, ts *httptest.Server, req JobRequest) (submitResponse, *http.Response) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatalf("marshal request: %v", err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/jobs: %v", err)
	}
	defer resp.Body.Close()
	var sub submitResponse
	if resp.StatusCode == http.StatusAccepted {
		if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
			t.Fatalf("decode submit response: %v", err)
		}
	} else {
		io.Copy(io.Discard, resp.Body)
	}
	return sub, resp
}

func getStatus(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	resp, err := http.Get(ts.URL + "/v1/jobs/" + id)
	if err != nil {
		t.Fatalf("GET job %s: %v", id, err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET job %s: status %d", id, resp.StatusCode)
	}
	var js JobStatus
	if err := json.NewDecoder(resp.Body).Decode(&js); err != nil {
		t.Fatalf("decode job status: %v", err)
	}
	return js
}

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.NewTimer(60 * time.Second)
	defer deadline.Stop()
	for !cond() {
		select {
		case <-deadline.C:
			t.Fatalf("timed out waiting for %s", what)
		default:
			time.Sleep(2 * time.Millisecond)
		}
	}
}

func waitTerminal(t *testing.T, ts *httptest.Server, id string) JobStatus {
	t.Helper()
	var js JobStatus
	waitFor(t, "job "+id+" terminal", func() bool {
		js = getStatus(t, ts, id)
		return js.State.terminal()
	})
	return js
}

// fakeEngine is a counting, optionally-blocking backend standing in for
// the simulator in scheduler tests.
type fakeEngine struct {
	mu      sync.Mutex
	calls   int
	entered chan string   // receives one label per RunPoint entry, when non-nil
	block   chan struct{} // when non-nil, RunPoint waits for close or ctx
}

func (e *fakeEngine) RunPoint(ctx context.Context, p Point, onProgress func(coaxial.Progress)) (PointOutcome, error) {
	e.mu.Lock()
	e.calls++
	e.mu.Unlock()
	if e.entered != nil {
		e.entered <- p.Label
	}
	if onProgress != nil {
		onProgress(coaxial.Progress{Phase: "measure", Cycles: 4096, Retired: 1, Target: p.RC.MeasureInstr})
	}
	if e.block != nil {
		select {
		case <-e.block:
		case <-ctx.Done():
			// Salvaged partial, like the real engine.
			return PointOutcome{Result: coaxial.Result{Config: p.Label, Cycles: 42}},
				fmt.Errorf("fake: stopped: %w", ctx.Err())
		}
	}
	return PointOutcome{Result: coaxial.Result{Config: p.Label, Cycles: 100, IPC: 1, Retired: p.RC.MeasureInstr}}, nil
}

func (e *fakeEngine) callCount() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.calls
}

// TestServeConcurrentDeterminism is the headline correctness test: 16
// concurrent clients posting a mix of identical and differing jobs all get
// results bit-identical (as JSON) to a direct, fresh Runner.Run of the
// same configuration. Runs under -race in CI.
func TestServeConcurrentDeterminism(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 32})

	presets := []string{"ddr-baseline", "coaxial-4x"}
	// Direct reference runs: a fresh Runner per preset, same RunConfig the
	// wire layer builds.
	want := make(map[string][]byte)
	for _, p := range presets {
		topo, err := coaxial.TopologyPresetByName(p)
		if err != nil {
			t.Fatal(err)
		}
		cfg, _ := topo.Single()
		w, err := coaxial.WorkloadByName("stream-copy")
		if err != nil {
			t.Fatal(err)
		}
		wl := make([]coaxial.Workload, cfg.Cores)
		for i := range wl {
			wl[i] = w
		}
		res, err := coaxial.NewRunner(coaxial.WithRunConfig(testRunConfig())).
			RunMix(context.Background(), cfg, wl)
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.MarshalIndent(res, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		want[p] = b
	}

	const clients = 16
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for c := 0; c < clients; c++ {
		preset := presets[c%len(presets)]
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub, resp := postJob(t, ts, JobRequest{
				Kind: "run", Preset: preset, Workload: "stream-copy", Windows: testWindows(),
			})
			if resp.StatusCode != http.StatusAccepted {
				errs <- fmt.Errorf("%s: submit status %d", preset, resp.StatusCode)
				return
			}
			js := waitTerminal(t, ts, sub.ID)
			if js.State != StateDone {
				errs <- fmt.Errorf("%s: job %s ended %s (%s)", preset, sub.ID, js.State, js.Error)
				return
			}
			if len(js.Results) != 1 {
				errs <- fmt.Errorf("%s: %d results", preset, len(js.Results))
				return
			}
			got, err := json.MarshalIndent(js.Results[0].Result, "", "  ")
			if err != nil {
				errs <- err
				return
			}
			if !bytes.Equal(got, want[preset]) {
				errs <- fmt.Errorf("%s: served result differs from direct Runner.Run:\ngot:\n%s\nwant:\n%s",
					preset, got, want[preset])
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestServeSingleFlightCollapse pins the single-flight guarantee: K
// identical in-flight jobs start exactly one simulation, and a second
// batch after completion starts exactly one more (results are not cached
// across flights — only warm state is, at the Runner layer).
func TestServeSingleFlightCollapse(t *testing.T) {
	eng := &fakeEngine{block: make(chan struct{})}
	s, ts := newTestServer(t, Options{Workers: 8, QueueDepth: 32, Engine: eng})

	const k = 6
	req := JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc", Windows: testWindows()}
	ids := make([]string, k)
	for i := range ids {
		sub, resp := postJob(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids[i] = sub.ID
	}
	// All k jobs must be attached to one flight before release.
	waitFor(t, "all jobs coalesced onto one flight", func() bool {
		started, coalesced := s.flights.stats()
		return started == 1 && coalesced == k-1
	})
	close(eng.block)
	for _, id := range ids {
		js := waitTerminal(t, ts, id)
		if js.State != StateDone {
			t.Fatalf("job %s ended %s (%s)", id, js.State, js.Error)
		}
		if js.Results[0].Result.Cycles != 100 {
			t.Fatalf("job %s: cycles %d, want the shared flight's 100", id, js.Results[0].Result.Cycles)
		}
	}
	if got := eng.callCount(); got != 1 {
		t.Fatalf("engine ran %d times for %d identical in-flight jobs, want 1", got, k)
	}

	// Completed flights don't cache: a fresh identical job simulates again.
	eng.block = nil
	sub, _ := postJob(t, ts, req)
	if js := waitTerminal(t, ts, sub.ID); js.State != StateDone {
		t.Fatalf("second batch job ended %s", js.State)
	}
	if got := eng.callCount(); got != 2 {
		t.Fatalf("engine calls after second batch = %d, want 2", got)
	}
}

// TestServeWarmCacheSharing pins the warm-state story end to end with the
// real engine: the first job captures one warm snapshot; an identical
// later job reuses it (zero new captures) and returns identical bytes.
func TestServeWarmCacheSharing(t *testing.T) {
	runner := coaxial.NewRunner()
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8, Engine: NewRunnerEngine(runner)})

	req := JobRequest{Kind: "run", Preset: "ddr-baseline", Workload: "stream-copy", Windows: testWindows()}
	first, _ := postJob(t, ts, req)
	js1 := waitTerminal(t, ts, first.ID)
	if js1.State != StateDone {
		t.Fatalf("first job ended %s (%s)", js1.State, js1.Error)
	}
	st := runner.WarmStats()
	if st.Captures != 1 || st.Entries != 1 {
		t.Fatalf("after first job: WarmStats = %+v, want 1 capture / 1 entry", st)
	}

	second, _ := postJob(t, ts, req)
	js2 := waitTerminal(t, ts, second.ID)
	if js2.State != StateDone {
		t.Fatalf("second job ended %s (%s)", js2.State, js2.Error)
	}
	if st = runner.WarmStats(); st.Captures != 1 {
		t.Fatalf("second identical job captured again: WarmStats = %+v, want 1 capture", st)
	}
	b1, _ := json.Marshal(js1.Results[0].Result)
	b2, _ := json.Marshal(js2.Results[0].Result)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("warm-reuse result differs from cold result:\ncold: %s\nwarm: %s", b1, b2)
	}
}

// TestServeCancelReturnsPartials cancels a real simulation mid-measure and
// checks DELETE returns salvaged partial measurements.
func TestServeCancelReturnsPartials(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4})

	sub, resp := postJob(t, ts, JobRequest{
		Kind: "run", Preset: "ddr-baseline", Workload: "stream-copy",
		Windows: &Windows{FunctionalWarmup: 20_000, Measure: 100_000_000},
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: status %d", resp.StatusCode)
	}
	// Wait for the measure window to actually be underway (progress events
	// fire at cancellation-poll boundaries).
	waitFor(t, "job running with progress", func() bool {
		js := getStatus(t, ts, sub.ID)
		return js.State == StateRunning && js.Progress != nil && js.Progress.Cycles > 0
	})

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	defer dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("DELETE status %d", dresp.StatusCode)
	}
	var js JobStatus
	if err := json.NewDecoder(dresp.Body).Decode(&js); err != nil {
		t.Fatalf("decode DELETE response: %v", err)
	}
	if js.State != StateCanceled {
		t.Fatalf("state %s after cancel, want canceled", js.State)
	}
	if len(js.Results) != 1 {
		t.Fatalf("%d results after cancel, want 1 partial", len(js.Results))
	}
	pr := js.Results[0]
	if !pr.Partial {
		t.Fatalf("canceled point not marked partial: %+v", pr)
	}
	if pr.Result.Cycles <= 0 || pr.Result.Retired == 0 {
		t.Fatalf("partial result carries no measurements: cycles=%d retired=%d", pr.Result.Cycles, pr.Result.Retired)
	}
	if pr.Result.Retired >= 100_000_000 {
		t.Fatalf("partial result retired a full window (%d), cancellation was a no-op", pr.Result.Retired)
	}
	if pr.Error == "" || js.Error == "" {
		t.Fatalf("cancellation left no error trace: point=%q job=%q", pr.Error, js.Error)
	}
}

// TestServeQueueFull saturates the bounded queue and checks the 429 +
// Retry-After backpressure contract.
func TestServeQueueFull(t *testing.T) {
	eng := &fakeEngine{block: make(chan struct{}), entered: make(chan string, 8)}
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1, Engine: eng})

	mk := func(seed uint64) JobRequest {
		return JobRequest{Kind: "run", Preset: "coaxial-2x", Workload: "gcc", Seed: seed, Windows: testWindows()}
	}
	first, resp := postJob(t, ts, mk(1))
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("first submit: status %d", resp.StatusCode)
	}
	<-eng.entered // the worker claimed it; the queue is empty again

	if _, resp = postJob(t, ts, mk(2)); resp.StatusCode != http.StatusAccepted {
		t.Fatalf("second submit: status %d", resp.StatusCode)
	}
	_, resp = postJob(t, ts, mk(3))
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit into full queue: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After header")
	}

	close(eng.block)
	if js := waitTerminal(t, ts, first.ID); js.State != StateDone {
		t.Fatalf("first job ended %s", js.State)
	}
}

// TestServeGracefulShutdown checks the drain contract: running jobs
// finish, new submissions answer 503, health flips to draining.
func TestServeGracefulShutdown(t *testing.T) {
	eng := &fakeEngine{block: make(chan struct{}), entered: make(chan string, 8)}
	s := New(Options{Workers: 1, QueueDepth: 4, Engine: eng})
	ts := httptest.NewServer(s)
	defer ts.Close()

	sub, _ := postJob(t, ts, JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc", Windows: testWindows()})
	<-eng.entered

	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(context.Background()) }()
	waitFor(t, "draining state", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.draining
	})

	if _, resp := postJob(t, ts, JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "mcf", Windows: testWindows()}); resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("submit while draining: status %d, want 503", resp.StatusCode)
	}
	if resp, err := http.Get(ts.URL + "/healthz"); err != nil {
		t.Fatal(err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("healthz while draining: status %d, want 503", resp.StatusCode)
		}
	}

	close(eng.block) // let the running job finish
	if err := <-shutdownDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if js := getStatus(t, ts, sub.ID); js.State != StateDone {
		t.Fatalf("drained job ended %s, want done", js.State)
	}
}

// TestServeStream reads the chunked JSON-lines stream end to end.
func TestServeStream(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})

	sub, _ := postJob(t, ts, JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "stream-copy", Windows: testWindows()})
	resp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/stream")
	if err != nil {
		t.Fatalf("GET stream: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream status %d", resp.StatusCode)
	}

	var events []StreamEvent
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		var ev StreamEvent
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad stream line %q: %v", sc.Text(), err)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		t.Fatalf("stream read: %v", err)
	}
	if len(events) == 0 {
		t.Fatal("empty stream")
	}
	for _, ev := range events {
		switch ev.Type {
		case "status", "progress", "point", "end":
		default:
			t.Fatalf("unknown stream event type %q", ev.Type)
		}
	}
	last := events[len(events)-1]
	if last.Type != "end" || last.Job == nil {
		t.Fatalf("stream did not end with a terminal snapshot: %+v", last)
	}
	if last.Job.State != StateDone || len(last.Job.Results) != 1 {
		t.Fatalf("terminal snapshot incomplete: state=%s results=%d", last.Job.State, len(last.Job.Results))
	}
	// The stream's terminal snapshot and a plain GET agree.
	direct := getStatus(t, ts, sub.ID)
	b1, _ := json.Marshal(last.Job.Results)
	b2, _ := json.Marshal(direct.Results)
	if !bytes.Equal(b1, b2) {
		t.Fatalf("stream end results differ from GET:\nstream: %s\nget:    %s", b1, b2)
	}
}

// TestServeJobStorm hammers every endpoint concurrently; its value is
// running under -race (CI does) over the full submit/get/stream/cancel
// surface.
func TestServeJobStorm(t *testing.T) {
	eng := &fakeEngine{}
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 256, Engine: eng})

	workloads := []string{"gcc", "mcf", "stream-copy"}
	const clients = 12
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		c := c
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 6; i++ {
				req := JobRequest{
					Kind: "run", Preset: "coaxial-4x",
					Workload: workloads[(c+i)%len(workloads)],
					Seed:     uint64(i%2 + 1),
					Windows:  testWindows(),
				}
				sub, resp := postJob(t, ts, req)
				if resp.StatusCode != http.StatusAccepted {
					continue // queue-full under storm is a valid answer
				}
				switch i % 3 {
				case 0:
					waitTerminal(t, ts, sub.ID)
				case 1:
					req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/"+sub.ID, nil)
					if dresp, err := http.DefaultClient.Do(req); err == nil {
						io.Copy(io.Discard, dresp.Body)
						dresp.Body.Close()
					}
				case 2:
					if sresp, err := http.Get(ts.URL + "/v1/jobs/" + sub.ID + "/stream"); err == nil {
						io.Copy(io.Discard, sresp.Body)
						sresp.Body.Close()
					}
				}
				if lresp, err := http.Get(ts.URL + "/v1/jobs"); err == nil {
					io.Copy(io.Discard, lresp.Body)
					lresp.Body.Close()
				}
				if mresp, err := http.Get(ts.URL + "/metrics"); err == nil {
					io.Copy(io.Discard, mresp.Body)
					mresp.Body.Close()
				}
			}
		}()
	}
	wg.Wait()
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("post-storm shutdown: %v", err)
	}
	started, coalesced := s.flights.stats()
	if started == 0 {
		t.Fatal("storm started no simulations")
	}
	t.Logf("storm: %d flights started, %d coalesced, %d engine calls", started, coalesced, eng.callCount())
}

// TestServeEndpointEdges covers the small HTTP contracts: 404s, method
// rejection, bad payloads, presets, metrics shape.
func TestServeEndpointEdges(t *testing.T) {
	_, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 4, Engine: &fakeEngine{}})

	if resp, _ := http.Get(ts.URL + "/v1/jobs/nope"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("GET missing job: %d, want 404", resp.StatusCode)
	}
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/jobs/nope", nil)
	if resp, _ := http.DefaultClient.Do(req); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("DELETE missing job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Get(ts.URL + "/v1/jobs/nope/stream"); resp.StatusCode != http.StatusNotFound {
		t.Fatalf("stream missing job: %d, want 404", resp.StatusCode)
	}
	if resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json", strings.NewReader("{not json")); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed submit: %d, want 400", resp.StatusCode)
	}
	if resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"run","preset":"nope","workload":"gcc"}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown preset: %d, want 400", resp.StatusCode)
	}
	if resp, _ := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"kind":"run","preset":"coaxial-4x","workload":"gcc","parallelism":2}`)); resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("removed parallelism field: %d, want 400", resp.StatusCode)
	}

	resp, err := http.Get(ts.URL + "/v1/presets")
	if err != nil {
		t.Fatal(err)
	}
	var pr presetsResponse
	if err := json.NewDecoder(resp.Body).Decode(&pr); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(pr.Topologies) == 0 || len(pr.Workloads) != 36 {
		t.Fatalf("presets: %d topologies, %d workloads (want 36)", len(pr.Topologies), len(pr.Workloads))
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	for _, want := range []string{"coaxial_serve_jobs{state=\"queued\"}", "coaxial_serve_points_started_total", "coaxial_serve_queue_depth"} {
		if !strings.Contains(string(body), want) {
			t.Fatalf("metrics missing %q:\n%s", want, body)
		}
	}
}

// TestServeSweepJob runs a 2×2 sweep through the fake engine and checks
// point ordering and labeling.
func TestServeSweepJob(t *testing.T) {
	eng := &fakeEngine{}
	_, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8, Engine: eng})

	sub, resp := postJob(t, ts, JobRequest{
		Kind:    "sweep",
		Presets: []string{"ddr-baseline", "coaxial-4x"}, Workloads: []string{"gcc", "mcf"},
		Windows: testWindows(),
	})
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d", resp.StatusCode)
	}
	if sub.Points != 4 {
		t.Fatalf("sweep points = %d, want 4", sub.Points)
	}
	js := waitTerminal(t, ts, sub.ID)
	if js.State != StateDone {
		t.Fatalf("sweep ended %s (%s)", js.State, js.Error)
	}
	wantLabels := []string{"ddr-baseline/gcc", "ddr-baseline/mcf", "coaxial-4x/gcc", "coaxial-4x/mcf"}
	if len(js.Results) != len(wantLabels) {
		t.Fatalf("%d results, want %d", len(js.Results), len(wantLabels))
	}
	for i, pr := range js.Results {
		if pr.Index != i || pr.Label != wantLabels[i] {
			t.Fatalf("result %d: index=%d label=%q, want %q", i, pr.Index, pr.Label, wantLabels[i])
		}
	}
}

// panicEngine is a planted crash: its first point panics once released,
// and every later point runs on the real Runner-backed engine.
type panicEngine struct {
	release chan struct{}
	real    Engine

	mu    sync.Mutex
	calls int
}

func (e *panicEngine) RunPoint(ctx context.Context, p Point, onProgress func(coaxial.Progress)) (PointOutcome, error) {
	e.mu.Lock()
	e.calls++
	first := e.calls == 1
	e.mu.Unlock()
	if first {
		<-e.release
		panic("planted engine fault")
	}
	return e.real.RunPoint(ctx, p, onProgress)
}

// TestServePointPanicIsolated: a panicking point fails every job
// coalesced onto its flight with the panic and its stack, counts in
// /metrics, and leaves the daemon serving. Runs under -race in CI.
func TestServePointPanicIsolated(t *testing.T) {
	eng := &panicEngine{release: make(chan struct{}), real: NewRunnerEngine(coaxial.NewRunner())}
	s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 16, Engine: eng})

	const k = 4
	req := JobRequest{Kind: "run", Preset: "coaxial-4x", Workload: "gcc", ActiveCores: 1, Windows: testWindows()}
	ids := make([]string, k)
	for i := range ids {
		sub, resp := postJob(t, ts, req)
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids[i] = sub.ID
	}
	waitFor(t, "all jobs coalesced onto one flight", func() bool {
		started, coalesced := s.flights.stats()
		return started == 1 && coalesced == k-1
	})
	close(eng.release)
	for _, id := range ids {
		js := waitTerminal(t, ts, id)
		if js.State != StateFailed {
			t.Fatalf("job %s ended %s, want failed", id, js.State)
		}
		if !strings.Contains(js.Error, "planted engine fault") || !strings.Contains(js.Error, "goroutine") {
			t.Fatalf("job %s error lacks the panic and its stack:\n%s", id, js.Error)
		}
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if !strings.Contains(string(body), "coaxial_serve_panics_total 1\n") {
		t.Fatalf("metrics do not count the panic:\n%s", body)
	}

	sub, resp := postJob(t, ts, req)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit after panic: status %d", resp.StatusCode)
	}
	js := waitTerminal(t, ts, sub.ID)
	if js.State != StateDone || js.Results[0].Result.Cycles == 0 {
		t.Fatalf("job after panic ended %s (%s) with results %+v", js.State, js.Error, js.Results)
	}
}

// namingEngine blocks until released, then labels results like the real
// engine does: with the point's own config, rack and host names.
type namingEngine struct{ release chan struct{} }

func (e namingEngine) RunPoint(ctx context.Context, p Point, _ func(coaxial.Progress)) (PointOutcome, error) {
	<-e.release
	if p.Rack == nil {
		return PointOutcome{Result: coaxial.Result{Config: p.Config.Name, Cycles: 100}}, nil
	}
	rr := coaxial.RackResult{Config: p.Rack.Name, Cycles: 100}
	for _, h := range p.Rack.Hosts {
		rr.Hosts = append(rr.Hosts, coaxial.Result{Config: h.Name, Cycles: 100})
	}
	return PointOutcome{Result: rr.Summary(), Rack: &rr}, nil
}

// TestServeCoalescedPointsKeepTheirNames: active_cores equal to the core
// count renames the config but not the simulation, so such a point
// shares the default point's flight; each job must still report its own
// config (and, for racks, host) names.
func TestServeCoalescedPointsKeepTheirNames(t *testing.T) {
	for _, kind := range []string{"run", "rack"} {
		t.Run(kind, func(t *testing.T) {
			eng := namingEngine{release: make(chan struct{})}
			s, ts := newTestServer(t, Options{Workers: 4, QueueDepth: 8, Engine: eng})
			preset, hosts := "coaxial-4x", 0
			if kind == "rack" {
				preset, hosts = "coaxial-pooled", 2
			}
			var ids []string
			for _, active := range []int{0, 12} {
				sub, resp := postJob(t, ts, JobRequest{Kind: kind, Preset: preset, Workload: "gcc",
					Hosts: hosts, ActiveCores: active, Windows: testWindows()})
				if resp.StatusCode != http.StatusAccepted {
					t.Fatalf("submit: status %d", resp.StatusCode)
				}
				ids = append(ids, sub.ID)
			}
			waitFor(t, "both jobs on one flight", func() bool {
				started, coalesced := s.flights.stats()
				return started == 1 && coalesced == 1
			})
			close(eng.release)
			for i, id := range ids {
				js := waitTerminal(t, ts, id)
				if js.State != StateDone {
					t.Fatalf("job %s ended %s (%s)", id, js.State, js.Error)
				}
				host := preset
				if i == 1 {
					host += "@12c"
				}
				pr := js.Results[0]
				if kind == "run" && pr.Result.Config != host {
					t.Errorf("job %s: config %q, want %q", id, pr.Result.Config, host)
				}
				if kind == "rack" && (pr.Rack == nil || pr.Rack.Hosts[1].Config != host) {
					t.Errorf("job %s: rack detail %+v, want hosts named %q", id, pr.Rack, host)
				}
			}
		})
	}
}
