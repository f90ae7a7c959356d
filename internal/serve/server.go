package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"sync"
	"time"

	"coaxial"
)

// Options configures a Server. The zero value is usable: GOMAXPROCS
// workers, a 16-deep queue, a fresh Runner-backed engine, and a
// deterministic synthetic clock (the daemon injects time.Now).
type Options struct {
	// Workers sizes the simulation worker pool (GOMAXPROCS when 0).
	Workers int
	// QueueDepth bounds queued-but-unclaimed jobs (16 when 0); beyond it,
	// submissions answer 429 + Retry-After.
	QueueDepth int
	// Engine is the simulation backend (a shared-Runner engine when nil).
	Engine Engine
	// Clock stamps job metadata (synthetic deterministic clock when nil).
	Clock Clock
}

// Server is the simulation service: a bounded worker pool over a shared
// single-flight group and job store, fronted by an http.Handler speaking
// the /v1 JSON API.
type Server struct {
	store   *store
	engine  Engine
	flights *group
	queue   chan *job
	workers int
	wg      sync.WaitGroup
	mux     *http.ServeMux

	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	draining bool //lint:guardedby mu
}

// New builds and starts a Server (its worker pool runs until Shutdown or
// Close).
func New(opts Options) *Server {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.QueueDepth <= 0 {
		opts.QueueDepth = 16
	}
	if opts.Engine == nil {
		opts.Engine = NewRunnerEngine(coaxial.NewRunner())
	}
	if opts.Clock == nil {
		opts.Clock = syntheticClock()
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		store:      newStore(opts.Clock),
		engine:     opts.Engine,
		flights:    newGroup(),
		queue:      make(chan *job, opts.QueueDepth),
		workers:    opts.Workers,
		baseCtx:    ctx,
		baseCancel: cancel,
	}
	s.mux = http.NewServeMux()
	s.mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /v1/jobs", s.handleList)
	s.mux.HandleFunc("GET /v1/jobs/{id}", s.handleGet)
	s.mux.HandleFunc("DELETE /v1/jobs/{id}", s.handleCancel)
	s.mux.HandleFunc("GET /v1/jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("GET /v1/presets", s.handlePresets)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	s.mux.HandleFunc("GET /metrics", s.handleMetrics)
	s.wg.Add(opts.Workers)
	for i := 0; i < opts.Workers; i++ {
		go s.worker()
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.mux.ServeHTTP(w, r)
}

// syntheticClock returns a deterministic Clock: monotonically increasing
// millisecond ticks from the Unix epoch. The serve package never reads the
// wall clock itself (coaxlint's determinism checker enforces it); real
// time enters only when the daemon injects time.Now.
func syntheticClock() Clock {
	var (
		mu   sync.Mutex
		tick int64
	)
	return func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		tick++
		return time.Unix(0, tick*int64(time.Millisecond)).UTC()
	}
}

// errorBody is the uniform error payload.
type errorBody struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, format string, args ...any) {
	writeJSON(w, code, errorBody{Error: fmt.Sprintf(format, args...)})
}

// submitResponse acknowledges an accepted job.
type submitResponse struct {
	ID     string `json:"id"`
	Points int    `json:"points"`
	Status string `json:"status_url"`
	Stream string `json:"stream_url"`
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	req, err := DecodeJobRequest(r.Body)
	if err != nil {
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	}
	id, err := s.Submit(req)
	switch {
	case errors.Is(err, ErrQueueFull):
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, "%v", err)
		return
	case errors.Is(err, ErrDraining):
		writeError(w, http.StatusServiceUnavailable, "%v", err)
		return
	case IsRequestError(err):
		writeError(w, http.StatusBadRequest, "%v", err)
		return
	case err != nil:
		writeError(w, http.StatusInternalServerError, "%v", err)
		return
	}
	j, _ := s.store.get(id)
	writeJSON(w, http.StatusAccepted, submitResponse{
		ID:     id,
		Points: len(j.points),
		Status: "/v1/jobs/" + id,
		Stream: "/v1/jobs/" + id + "/stream",
	})
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.store.list())
}

func (s *Server) handleGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	writeJSON(w, http.StatusOK, s.store.snapshot(j))
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	status, ok, err := s.Cancel(r.Context(), r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	if err != nil {
		// The client gave up before the job went terminal; report the
		// best-known state.
		writeJSON(w, http.StatusAccepted, status)
		return
	}
	writeJSON(w, http.StatusOK, status)
}

// handleStream serves the chunked JSON-lines stream: one initial "status"
// snapshot, interleaved "progress"/"point" events as simulation windows
// retire, and a terminal "end" snapshot carrying the complete results.
func (s *Server) handleStream(w http.ResponseWriter, r *http.Request) {
	j, ok := s.store.get(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, "no such job %q", r.PathValue("id"))
		return
	}
	flusher, ok := w.(http.Flusher)
	if !ok {
		writeError(w, http.StatusNotImplemented, "streaming unsupported by connection")
		return
	}
	events, unsubscribe := s.store.subscribe(j)
	defer unsubscribe()

	w.Header().Set("Content-Type", "application/jsonlines")
	w.Header().Set("Cache-Control", "no-store")
	w.WriteHeader(http.StatusOK)
	enc := json.NewEncoder(w)

	snap := s.store.snapshot(j)
	if events == nil {
		// Already terminal: the whole stream is the final snapshot.
		_ = enc.Encode(StreamEvent{Type: "end", Job: &snap})
		flusher.Flush()
		return
	}
	_ = enc.Encode(StreamEvent{Type: "status", Job: &snap})
	flusher.Flush()

	for {
		select {
		case ev := <-events:
			if err := enc.Encode(ev); err != nil {
				return
			}
			flusher.Flush()
			if ev.Type == "end" {
				return
			}
		case <-j.done:
			// Terminal state reached; the "end" event may have been
			// dropped on a full buffer — synthesize it from the store.
			final := s.store.snapshot(j)
			_ = enc.Encode(StreamEvent{Type: "end", Job: &final})
			flusher.Flush()
			return
		case <-r.Context().Done():
			return
		}
	}
}

// presetsResponse enumerates what the service can simulate.
type presetsResponse struct {
	Topologies []string `json:"topologies"`
	Workloads  []string `json:"workloads"`
}

func (s *Server) handlePresets(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, presetsResponse{
		Topologies: coaxial.TopologyNames(),
		Workloads:  coaxial.WorkloadNames(),
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, "draining")
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleMetrics reports scheduler and cache counters in Prometheus text
// exposition format (deterministic line order: states iterate a slice).
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	counts := s.store.stateCounts()
	started, coalesced := s.flights.stats()
	w.Header().Set("Content-Type", "text/plain; version=0.0.4")
	for i, st := range jobStates {
		fmt.Fprintf(w, "coaxial_serve_jobs{state=%q} %d\n", string(st), counts[i])
	}
	fmt.Fprintf(w, "coaxial_serve_points_started_total %d\n", started)
	fmt.Fprintf(w, "coaxial_serve_points_coalesced_total %d\n", coalesced)
	fmt.Fprintf(w, "coaxial_serve_points_in_flight %d\n", s.flights.inFlight())
	fmt.Fprintf(w, "coaxial_serve_panics_total %d\n", s.flights.panicked())
	fmt.Fprintf(w, "coaxial_serve_queue_depth %d\n", len(s.queue))
	fmt.Fprintf(w, "coaxial_serve_workers %d\n", s.workers)
	if ws, ok := s.engine.(WarmStater); ok {
		st := ws.WarmStats()
		fmt.Fprintf(w, "coaxial_serve_warm_entries %d\n", st.Entries)
		fmt.Fprintf(w, "coaxial_serve_warm_captures_total %d\n", st.Captures)
	}
}
