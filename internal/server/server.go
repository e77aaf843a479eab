// Package server is the meshd daemon's service layer: a long-running HTTP
// front over the ndmesh experiment library. It owns a shared EnginePool of
// warm, Reset-recycled simulations and serves every job through one
// pipeline (handleSubmit): digest → decode → key → cache lookup → admit →
// stream → settle. What differs per workload family (open-loop,
// closed-loop, trace replay, reliability) is one row of the kinds table
// (kinds.go); rows stream as cells complete — NDJSON by default, the
// canonical open-loop CSV on request; settle is the one writer of job
// state.
//
// Three contracts, inherited from the library and pinned by this package's
// tests, make the service shape work:
//
//   - Byte identity: a streamed response is byte-identical to the batch
//     sweep's rows at every worker count. The sweeps emit rows in index
//     order, one at a time, at every width, so each row goes straight to
//     the client and streaming costs nothing in reproducibility.
//   - Cacheability: because the bytes depend only on the canonical spec
//     and seed, completed bodies are cached whole (spec key + format). A
//     repeat submission is served from memory without acquiring an engine.
//     Each entry also remembers the SHA-256 digest of the last exact
//     request (raw query + body) that resolved to it, recorded only after
//     those bytes decoded and keyed successfully; ParseSpec is a pure
//     function of the bytes, so a repeat of them is served from the digest
//     alone, skipping no check. The digest dies with its entry or when a
//     different spelling of the same spec names the entry.
//   - Clean recycling: every run returns its simulations to the pool
//     clean (the deferred-cleanup contract), so cancellation mid-stream or
//     shutdown mid-job cannot poison a later job's engine.
//
// Jobs are synchronous: the POST that submits a job streams its rows.
// GET /v1/jobs and /v1/jobs/{id} expose the registry (live jobs plus the
// last retainedJobs finished ones); /debug/census the pool, cache and
// live-probe state.
package server

import (
	"bytes"
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"runtime"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"

	"ndmesh"
	"ndmesh/internal/cliutil"
	"ndmesh/internal/probe"
)

// Config sizes the daemon's bounded resources. Zero values take the
// defaults noted on each field.
type Config struct {
	// MaxConcurrent is how many jobs may run engines at once (default 2).
	// Like MaxQueue, PoolIdle and MaxWorkers, a value <= 0 means the
	// default.
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
	c.MaxConcurrent = positiveOr(c.MaxConcurrent, 2)
	c.MaxQueue = positiveOr(c.MaxQueue, 8)
	c.CacheEntries = cmp.Or(c.CacheEntries, 256)
	c.CacheBytes = cmp.Or(c.CacheBytes, 64<<20)
	c.PoolIdle = positiveOr(c.PoolIdle, 8)
	c.MaxWorkers = positiveOr(c.MaxWorkers, runtime.GOMAXPROCS(0))
}

// positiveOr returns v when it is positive and def otherwise.
func positiveOr(v, def int) int {
	if v > 0 {
		return v
	}
	return def
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

	seq int // submission number, the N of ID "job-N"
}

// retainedJobs is how many finished jobs the registry remembers. Live
// (queued or running) jobs are always retained, and admission caps them at
// MaxConcurrent + MaxQueue: the registry is bounded by construction.
const retainedJobs = 1024

// Server is the meshd daemon core: engine pool, result cache, job
// registry and admission control, independent of any net.Listener so
// tests drive it through httptest.
type Server struct {
	cfg   Config
	pool  *ndmesh.EnginePool
	cache *resultCache

	// mu guards the registry and the census. Job records are written under
	// it and copied out by snapshot and job.
	mu        sync.Mutex
	nextID    int
	live      []*JobStatus             // queued or running
	finished  [retainedJobs]*JobStatus // ring; slot nfinished%retainedJobs is next
	nfinished int
	censusJob string
	census    *probe.Snapshot

	draining   atomic.Bool
	queue, sem chan struct{}   // admission: jobs waiting for a run slot, jobs holding one
	stop       context.Context // canceled by CancelAll; every admitted job polls it
	cancelAll  context.CancelFunc
	wg         sync.WaitGroup
}

// New builds a server with cfg's bounds (zero fields defaulted).
func New(cfg Config) *Server {
	cfg.fill()
	s := &Server{
		cfg:   cfg,
		pool:  ndmesh.NewEnginePool(cfg.PoolIdle),
		cache: newResultCache(cfg.CacheEntries, cfg.CacheBytes),
		queue: make(chan struct{}, cfg.MaxQueue),
		sem:   make(chan struct{}, cfg.MaxConcurrent),
	}
	s.stop, s.cancelAll = context.WithCancel(context.Background())
	return s
}

// Pool exposes the engine pool for tests and the census endpoint.
func (s *Server) Pool() *ndmesh.EnginePool { return s.pool }

// CacheStats exposes the result cache counters.
func (s *Server) CacheStats() CacheStats { return s.cache.Stats() }

// BeginShutdown stops admitting jobs: subsequent submissions get 503.
// In-flight jobs keep running — pair with http.Server.Shutdown, which
// waits for their streaming handlers to return (the graceful drain).
func (s *Server) BeginShutdown() { s.draining.Store(true) }

// CancelAll force-cancels every running and queued job: their sweeps
// abort with ErrCanceled at the next poll and their engines return to
// the pool clean. The escalation path when a drain deadline passes.
func (s *Server) CancelAll() { s.cancelAll() }

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

// register records a submission as queued under the next ID; a cache hit's
// rows are already counted.
func (s *Server) register(kind string, cells int, cached bool) *JobStatus {
	j := &JobStatus{Kind: kind, State: StateQueued, Cells: cells, Cache: "miss"}
	if cached {
		j.Cache, j.Rows = "hit", j.Cells
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.nextID++
	j.seq, j.ID = s.nextID, "job-"+strconv.Itoa(s.nextID)
	s.live = append(s.live, j)
	return j
}

// settle is the one writer of a job's state. Any state but running is
// final: the job moves from the live list into the ring, over the oldest.
func (s *Server) settle(j *JobStatus, state, errText string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j.State, j.Error = state, errText
	if state == StateRunning {
		return
	}
	i := slices.Index(s.live, j)
	s.live = slices.Delete(s.live, i, i+1)
	s.finished[s.nfinished%retainedJobs] = j
	s.nfinished++
}

// snapshot copies out every retained job's status, in submission order.
func (s *Server) snapshot() []JobStatus {
	s.mu.Lock()
	defer s.mu.Unlock()
	jobs := make([]JobStatus, 0, min(s.nfinished, retainedJobs)+len(s.live))
	for _, j := range s.finished[:min(s.nfinished, retainedJobs)] {
		jobs = append(jobs, *j)
	}
	for _, j := range s.live {
		jobs = append(jobs, *j)
	}
	slices.SortFunc(jobs, func(a, b JobStatus) int { return a.seq - b.seq })
	return jobs
}

// job copies out the retained job with the given ID, scanning the live
// list and the ring in place.
func (s *Server) job(id string) (JobStatus, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	for _, j := range s.live {
		if j.ID == id {
			return *j, true
		}
	}
	for _, j := range s.finished[:min(s.nfinished, retainedJobs)] {
		if j.ID == id {
			return *j, true
		}
	}
	return JobStatus{}, false
}

// setHeaders writes the headers every submission's response carries.
func setHeaders(w http.ResponseWriter, csv bool, job, cache string) {
	contentType := "application/x-ndjson"
	if csv {
		contentType = "text/csv"
	}
	h := w.Header()
	h.Set("Content-Type", contentType)
	h.Set("X-Meshd-Job", job)
	h.Set("X-Meshd-Cache", cache)
}

// serveHit is the one way a cache hit is answered, whether the digest or
// the parsed key found it: the job is registered with its rows counted and
// settled done, and the stored body goes out whole under an exact
// Content-Length.
func (s *Server) serveHit(w http.ResponseWriter, h hit) {
	j := s.register(h.kind.name, h.cells, true)
	setHeaders(w, h.csv, j.ID, "hit")
	w.Header().Set("Content-Length", strconv.Itoa(len(h.body)))
	s.settle(j, StateDone, "")
	_, _ = w.Write(h.body)
}

func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	// Read.
	if s.draining.Load() {
		http.Error(w, "server is draining", http.StatusServiceUnavailable)
		return
	}
	body, err := io.ReadAll(io.LimitReader(r.Body, maxTraceSize+4096+1))
	if err != nil {
		http.Error(w, "reading body: "+err.Error(), http.StatusBadRequest)
		return
	}

	// Digest: bytes that already decoded, keyed and resolved to a stored
	// body are served that body without being decoded again.
	req := digestRequest(r.URL.RawQuery, body)
	if h, ok := s.cache.lookup(req); ok {
		s.serveHit(w, h)
		return
	}

	// Decode.
	spec, err := ParseSpec(body)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	format := "ndjson"
	switch q := r.URL.Query().Get("format"); q {
	case "", "ndjson":
	case "csv":
		if !spec.kind.csv {
			http.Error(w, "format=csv is defined for open-loop jobs only", http.StatusBadRequest)
			return
		}
		format = "csv"
	default:
		http.Error(w, fmt.Sprintf("unknown format %q (want ndjson | csv)", q), http.StatusBadRequest)
		return
	}

	// Key, cache lookup: a hit serves the stored bytes without acquiring
	// an engine (or even a run slot) — the determinism dividend — and
	// names this request's digest on the entry.
	key := spec.Key() + ":" + format
	served := hit{kind: spec.kind, cells: spec.rows, csv: format == "csv"}
	if served.body = s.cache.get(key); served.body != nil {
		s.cache.name(key, req, served)
		s.serveHit(w, served)
		return
	}
	j := s.register(spec.Kind, served.cells, false)

	// Admit: bounded queue in front of the run slots. Refusal is a 503
	// before any streaming starts, so clients can retry elsewhere.
	select {
	case s.queue <- struct{}{}:
	default:
		s.settle(j, StateRefused, "admission queue full")
		http.Error(w, "admission queue full", http.StatusServiceUnavailable)
		return
	}
	s.wg.Add(1)
	defer s.wg.Done()
	ctx := r.Context()
	select {
	case s.sem <- struct{}{}:
	case <-ctx.Done():
		<-s.queue
		s.settle(j, StateCanceled, "canceled while queued")
		return
	case <-s.stop.Done():
		<-s.queue
		s.settle(j, StateCanceled, "server canceled all jobs")
		http.Error(w, "server shutting down", http.StatusServiceUnavailable)
		return
	}
	<-s.queue
	defer func() { <-s.sem }()

	// Stream to the client and into a replica buffer at once; only a
	// complete, successful replica enters the cache.
	s.settle(j, StateRunning, "")
	setHeaders(w, served.csv, j.ID, "miss")
	var replica bytes.Buffer
	flush := func() {}
	if flusher, ok := w.(http.Flusher); ok {
		flush = flusher.Flush
	}
	sink := io.MultiWriter(w, &replica)
	if served.csv {
		if _, err := io.WriteString(sink, cliutil.CSVHeader(cliutil.OpenLoopHeader())); err != nil {
			s.settle(j, StateFailed, err.Error())
			return
		}
	}
	var werr error
	e := env{
		srv: s, job: j, sink: sink, flush: flush, werr: &werr,
		cancel:  func() bool { return ctx.Err() != nil || s.stop.Err() != nil },
		workers: min(cmp.Or(spec.Workers, s.cfg.MaxWorkers), s.cfg.MaxWorkers),
		csv:     served.csv,
	}
	if spec.Probe {
		snap := &probe.Snapshot{}
		e.probe = snap
		s.mu.Lock()
		s.censusJob, s.census = j.ID, snap
		s.mu.Unlock()
	}
	runErr := spec.kind.run(spec, e)

	// Settle.
	switch {
	case runErr == nil && werr == nil:
		// An exact-size copy: the buffer's spare capacity (up to 2x) would
		// otherwise live as long as the entry, outside the cache's byte bound.
		s.cache.put(key, bytes.Clone(replica.Bytes()))
		s.cache.name(key, req, served)
		s.settle(j, StateDone, "")
	case runErr == nil:
		s.settle(j, StateFailed, "client went away mid-stream")
	default:
		state := StateFailed
		if errors.Is(runErr, ndmesh.ErrCanceled) {
			state = StateCanceled
		}
		s.settle(j, state, runErr.Error())
		if !served.csv && werr == nil {
			_, _ = sink.Write(encodeNDJSON(map[string]string{"error": runErr.Error()}))
		}
	}
	flush()
}

func (s *Server) handleList(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, map[string]any{"jobs": s.snapshot()})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	if st, ok := s.job(r.PathValue("id")); ok {
		writeJSON(w, st)
		return
	}
	http.Error(w, "no such job", http.StatusNotFound)
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
	s.mu.Lock()
	if s.census != nil {
		view.Probe = &probeView{Job: s.censusJob, Census: s.census.State()}
	}
	s.mu.Unlock()
	writeJSON(w, view)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
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
