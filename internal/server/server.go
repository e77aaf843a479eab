// Package server is the meshd daemon's service layer: a long-running HTTP
// front over the ndmesh experiment library. It owns a shared EnginePool of
// warm, Reset-recycled simulations, accepts JSON job specs (one per
// workload family: open-loop, closed-loop, trace replay, reliability),
// runs them through the library's parallel sweep machinery under a bounded
// admission queue, and streams result rows incrementally as cells complete
// — NDJSON by default, the canonical open-loop CSV on request.
//
// Three contracts, inherited from the library and pinned by this package's
// tests, make the service shape work:
//
//   - Byte identity: a streamed response is byte-identical to the batch
//     sweep's rows at every worker and shard count. The sweeps emit rows
//     in completion order tagged with cell indices; the sequencer restores
//     index order, so streaming costs nothing in reproducibility.
//   - Cacheability: because the bytes depend only on the canonical spec
//     and seed, completed bodies are cached whole (spec key + format). A
//     repeat submission is served from memory without acquiring an engine.
//   - Clean recycling: every run returns its simulations to the pool
//     clean (the deferred-cleanup contract), so cancellation mid-stream or
//     shutdown mid-job cannot poison a later job's engine.
//
// Jobs are synchronous: the POST that submits a job streams its rows.
// GET /v1/jobs and /v1/jobs/{id} expose the registry; /debug/census the
// pool, cache and live-probe state.
package server

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"sync"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/probe"
	"ndmesh/internal/traffic"
)

// Config sizes the daemon's bounded resources. Zero values take the
// defaults noted on each field.
type Config struct {
	// MaxConcurrent is how many jobs may run engines at once (default 2).
	MaxConcurrent int
	// MaxQueue is how many admitted jobs may wait for a run slot before
	// submissions are refused with 503 (default 8).
	MaxQueue int
	// CacheEntries/CacheBytes bound the result cache (defaults 256
	// bodies / 64 MiB); either <= 0 after defaulting disables it — set a
	// negative value to do that explicitly.
	CacheEntries int
	CacheBytes   int
	// PoolIdle caps the warm simulations retained per mesh shape
	// (default 8).
	PoolIdle int
	// MaxWorkers caps any single job's sweep fan-out (default
	// GOMAXPROCS). Jobs asking for more are clamped, not refused — the
	// width cannot change their bytes.
	MaxWorkers int
}

func (c *Config) fill() {
	if c.MaxConcurrent == 0 {
		c.MaxConcurrent = 2
	}
	if c.MaxQueue == 0 {
		c.MaxQueue = 8
	}
	if c.CacheEntries == 0 {
		c.CacheEntries = 256
	}
	if c.CacheBytes == 0 {
		c.CacheBytes = 64 << 20
	}
	if c.PoolIdle == 0 {
		c.PoolIdle = 8
	}
	if c.MaxWorkers <= 0 {
		c.MaxWorkers = runtime.GOMAXPROCS(0)
	}
}

// Job states reported by the registry.
const (
	StateQueued   = "queued"
	StateRunning  = "running"
	StateDone     = "done"
	StateFailed   = "failed"
	StateCanceled = "canceled"
	StateRefused  = "refused"
)

// JobStatus is the registry's view of one submission.
type JobStatus struct {
	ID    string `json:"id"`
	Kind  string `json:"kind"`
	State string `json:"state"`
	// Cells is the job's grid size; Rows how many have streamed so far.
	Cells int `json:"cells"`
	Rows  int `json:"rows"`
	// Cache is "hit" when the response was served from the result cache
	// without touching an engine, else "miss".
	Cache string `json:"cache"`
	Error string `json:"error,omitempty"`
}

type job struct {
	mu     sync.Mutex
	status JobStatus
}

func (j *job) update(fn func(*JobStatus)) {
	j.mu.Lock()
	fn(&j.status)
	j.mu.Unlock()
}

func (j *job) snapshot() JobStatus {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.status
}

// Server is the meshd daemon core: engine pool, result cache, job
// registry and admission control, independent of any net.Listener so
// tests drive it through httptest.
type Server struct {
	cfg   Config
	pool  *ndmesh.EnginePool
	cache *resultCache

	mu       sync.Mutex
	jobs     map[string]*job
	order    []string // job IDs in admission order (the list endpoint's order)
	nextID   int
	queued   int
	draining bool

	sem       chan struct{}
	force     chan struct{}
	forceOnce sync.Once
	wg        sync.WaitGroup

	censusMu  sync.Mutex
	censusJob string
	census    *probe.Snapshot
}

// New builds a server with cfg's bounds (zero fields defaulted).
func New(cfg Config) *Server {
	cfg.fill()
	return &Server{
		cfg:   cfg,
		pool:  ndmesh.NewEnginePool(cfg.PoolIdle),
		cache: newResultCache(cfg.CacheEntries, cfg.CacheBytes),
		jobs:  make(map[string]*job),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
		force: make(chan struct{}),
	}
}

// Pool exposes the engine pool for tests and the census endpoint.
func (s *Server) Pool() *ndmesh.EnginePool { return s.pool }

// CacheStats exposes the result cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// BeginShutdown stops admitting jobs: subsequent submissions get 503.
// In-flight jobs keep running — pair with http.Server.Shutdown, which
// waits for their streaming handlers to return (the graceful drain).
func (s *Server) BeginShutdown() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// CancelAll force-cancels every running and queued job: their sweeps
// abort with ErrCanceled at the next poll and their engines return to
// the pool clean. The escalation path when a drain deadline passes.
func (s *Server) CancelAll() {
	s.forceOnce.Do(func() { close(s.force) })
}

// Wait blocks until every admitted job's handler has finished.
func (s *Server) Wait() { s.wg.Wait() }

// Handler returns the daemon's HTTP surface.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/jobs", s.handleSubmit)
	mux.HandleFunc("GET /v1/jobs", s.handleList)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /debug/census", s.handleCensus)
	mux.HandleFunc("GET /healthz", s.handleHealth)
	return mux
}

// register creates a job record and returns it with its ID.
func (s *Server) register(spec *Spec) (*job, string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	id := fmt.Sprintf("job-%d", s.nextID)
	j := &job{status: JobStatus{
		ID: id, Kind: spec.Kind, State: StateQueued,
		Cells: spec.cells(), Cache: "miss",
	}}
	s.jobs[id] = j
	s.order = append(s.order, id)
	return j, id
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxTraceSize+4096+1))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}
	spec, err := ParseSpec(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	format := r.URL.Query().Get("format")
	switch format {
	case "", "ndjson":
		format = "ndjson"
	case "csv":
		if spec.Kind != KindOpenLoop {
			http.Error(w, "format=csv is defined for open-loop jobs only", http.StatusBadRequest)
			return
		}
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want ndjson | csv)", format), http.StatusBadRequest)
		return
	}

	j, id := s.register(spec)
	key := spec.Key() + ":" + format
	contentType := "application/x-ndjson"
	if format == "csv" {
		contentType = "text/csv"
	}

	// Cache first: a hit serves the stored bytes without acquiring an
	// engine (or even a run slot) — the determinism dividend.
	if cached := s.cache.get(key); cached != nil {
		w.Header().Set("Content-Type", contentType)
		w.Header().Set("X-Meshd-Job", id)
		w.Header().Set("X-Meshd-Cache", "hit")
		j.update(func(st *JobStatus) {
			st.State = StateDone
			st.Cache = "hit"
			st.Rows = st.Cells
		})
		_, _ = w.Write(cached)
		return
	}

	// Admission: bounded queue in front of the run slots. Refusal is a
	// 503 before any streaming starts, so clients can retry elsewhere.
	s.mu.Lock()
	if s.queued >= s.cfg.MaxQueue {
		s.mu.Unlock()
		j.update(func(st *JobStatus) {
			st.State = StateRefused
			st.Error = "admission queue full"
		})
		http.Error(w, "admission queue full", http.StatusServiceUnavailable)
		return
	}
	s.queued++
	s.mu.Unlock()
	s.wg.Add(1)
	defer s.wg.Done()
	ctx := r.Context()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		s.admitDone()
		j.update(func(st *JobStatus) {
			st.State = StateCanceled
			st.Error = "canceled while queued"
		})
		return
	case <-s.force:
		s.admitDone()
		j.update(func(st *JobStatus) {
			st.State = StateCanceled
			st.Error = "server canceled all jobs"
		})
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	s.admitDone()
	defer func() { <-s.sem }()

	canceled := func() bool {
		select {
		case <-s.force:
			return true
		default:
		}
		return ctx.Err() != nil
	}

	j.update(func(st *JobStatus) { st.State = StateRunning })
	w.Header().Set("Content-Type", contentType)
	w.Header().Set("X-Meshd-Job", id)
	w.Header().Set("X-Meshd-Cache", "miss")

	// Stream to the client and into a replica buffer at once; only a
	// complete, successful replica enters the cache.
	var replica bytes.Buffer
	flusher, _ := w.(http.Flusher)
	flush := func() {}
	if flusher != nil {
		flush = flusher.Flush
	}
	sink := io.MultiWriter(w, &replica)
	seq := newSequencer(sink, flush)
	if format == "csv" {
		// The header goes out before any cell can emit, so writing it
		// around the sequencer is race-free.
		header := cliutil.CSVHeader(cliutil.OpenLoopHeader())
		if _, err := sink.Write([]byte(header)); err != nil {
			j.update(func(st *JobStatus) { st.State = StateFailed; st.Error = err.Error() })
			return
		}
	}

	runErr := s.run(spec, format, seq, j, canceled)

	switch {
	case runErr == nil:
		if seq.flushErr() == nil {
			s.cache.put(key, append([]byte(nil), replica.Bytes()...))
			j.update(func(st *JobStatus) { st.State = StateDone })
		} else {
			j.update(func(st *JobStatus) {
				st.State = StateFailed
				st.Error = "client went away mid-stream"
			})
		}
	case errors.Is(runErr, ndmesh.ErrCanceled):
		j.update(func(st *JobStatus) {
			st.State = StateCanceled
			st.Error = runErr.Error()
		})
		if format == "ndjson" && seq.flushErr() == nil {
			_, _ = sink.Write(encodeNDJSON(map[string]string{"error": runErr.Error()}))
		}
	default:
		j.update(func(st *JobStatus) {
			st.State = StateFailed
			st.Error = runErr.Error()
		})
		if format == "ndjson" && seq.flushErr() == nil {
			_, _ = sink.Write(encodeNDJSON(map[string]string{"error": runErr.Error()}))
		}
	}
	flush()
}

// admitDone releases the admission-queue slot taken in handleSubmit.
func (s *Server) admitDone() {
	s.mu.Lock()
	s.queued--
	s.mu.Unlock()
}

// streamRows adapts a sweep's Emit hook to the job's row stream: encode
// the row, hand it to the sequencer under its cell index, count it on the
// job record.
func streamRows[R any](seq *sequencer, j *job, encode func(row R) []byte) func(int, R) {
	return func(i int, row R) {
		seq.push(i, encode(row))
		j.update(func(st *JobStatus) { st.Rows++ })
	}
}

// run executes the spec's workload with the server's pool, streaming
// each row through the sequencer and counting it on the job record.
func (s *Server) run(spec *Spec, format string, seq *sequencer, j *job, canceled func() bool) error {
	workers := spec.Workers
	if workers == 0 || workers > s.cfg.MaxWorkers {
		workers = s.cfg.MaxWorkers
	}
	var snap *probe.Snapshot
	if spec.Probe {
		snap = &probe.Snapshot{}
		s.censusMu.Lock()
		s.censusJob = j.snapshot().ID
		s.census = snap
		s.censusMu.Unlock()
	}

	switch spec.Kind {
	case KindOpenLoop:
		opt := spec.saturationOptions()
		opt.Pool = s.pool
		opt.Cancel = canceled
		if snap != nil {
			opt.Probe = snap
		}
		encode := encodeNDJSON[ndmesh.SaturationRow]
		if format == "csv" {
			encode = func(row ndmesh.SaturationRow) []byte {
				return []byte(cliutil.CSVLine(cliutil.OpenLoopCells(row)))
			}
		}
		opt.Emit = streamRows(seq, j, encode)
		_, err := ndmesh.SaturationSweepWorkers(opt, spec.Seed, workers)
		return err
	case KindClosedLoop:
		opt := spec.closedLoopOptions()
		opt.Pool = s.pool
		opt.Cancel = canceled
		if snap != nil {
			opt.Probe = snap
		}
		opt.Emit = streamRows(seq, j, encodeNDJSON[ndmesh.ClosedLoopRow])
		_, err := ndmesh.ClosedLoopSweepWorkers(opt, spec.Seed, workers)
		return err
	case KindReliability:
		opt := spec.reliabilityOptions()
		opt.Pool = s.pool
		opt.Cancel = canceled
		opt.Emit = streamRows(seq, j, encodeNDJSON[ndmesh.ReliabilityRow])
		_, err := ndmesh.ReliabilitySweepWorkers(opt, spec.Seed, workers)
		return err
	case KindReplay:
		tr, err := traffic.UnmarshalTrace(spec.Trace)
		if err != nil {
			return err
		}
		opt := spec.loadOptions(tr)
		opt.Pool = s.pool
		opt.Cancel = canceled
		pt, err := ndmesh.LoadRun(opt)
		if err != nil {
			return err
		}
		streamRows(seq, j, encodeNDJSON[ReplayRow])(0, ReplayRow{Router: opt.Router, Point: pt})
		return nil
	default:
		return fmt.Errorf("unreachable kind %q", spec.Kind)
	}
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	ids := append([]string(nil), s.order...)
	s.mu.Unlock()
	statuses := make([]JobStatus, 0, len(ids))
	for _, id := range ids {
		s.mu.Lock()
		j := s.jobs[id]
		s.mu.Unlock()
		statuses = append(statuses, j.snapshot())
	}
	writeJSON(w, map[string]any{"jobs": statuses})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	s.mu.Unlock()
	if !ok {
		http.Error(w, "no such job", http.StatusNotFound)
		return
	}
	writeJSON(w, j.snapshot())
}

// censusView is the /debug/census payload: pool and cache counters plus
// the most recently probed job's live rollup.
type censusView struct {
	Pool  ndmesh.PoolStats `json:"pool"`
	Cache CacheStats       `json:"cache"`
	Probe *probeView       `json:"probe,omitempty"`
}

type probeView struct {
	Job    string              `json:"job"`
	Census probe.SnapshotState `json:"census"`
}

func (s *Server) handleCensus(w http.ResponseWriter, r *http.Request) {
	view := censusView{Pool: s.pool.Stats(), Cache: s.cache.Stats()}
	s.censusMu.Lock()
	if s.census != nil {
		view.Probe = &probeView{Job: s.censusJob, Census: s.census.State()}
	}
	s.censusMu.Unlock()
	writeJSON(w, view)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Header().Set("Content-Type", "text/plain")
	_, _ = io.WriteString(w, "ok\n")
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	data := encodeNDJSON(v)
	_, _ = w.Write(data)
}
